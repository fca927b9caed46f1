#!/usr/bin/env bash
# Docs-consistency check: every column a CSV writer emits must be documented
# in docs/reporting.md, in backticks. The header of each writer below is the
# run of adjacent string literals (only [a-z0-9_,] characters) that ends in
# the function's first literal ending with "\n"; a writer whose header
# cannot be found fails the check rather than passing vacuously. Run from
# anywhere; CI runs it on every push.
set -u
cd "$(dirname "$0")/.."

doc=docs/reporting.md
if [ ! -f "$doc" ]; then
  echo "FAIL: $doc does not exist" >&2
  exit 1
fi

# Prints the comma-separated header columns of function $2 in file $1, one
# per line.
header_columns() {
  awk -v fn="$2" '
    !inside && index($0, " " fn "(") && $0 !~ /;[[:space:]]*$/ { inside = 1 }
    inside { print }
    inside && /\\n"/ { exit }
  ' "$1" |
    grep -oE '"[^"]*"' |
    awk '
      { lit[NR] = substr($0, 2, length($0) - 2) }
      END {
        # Walk back from the closing "\n" literal while literals stay
        # header-shaped; the first other literal ends the run.
        run = ""
        for (i = NR; i >= 1; --i) {
          if (lit[i] !~ /^[a-z0-9_,]*(\\n)?$/) break
          run = lit[i] run
        }
        sub(/\\n$/, "", run)
        n = split(run, cols, ",")
        for (j = 1; j <= n; ++j) if (cols[j] != "") print cols[j]
      }'
}

status=0
checked=0
while read -r file fn; do
  columns=$(header_columns "$file" "$fn")
  if [ -z "$columns" ]; then
    echo "FAIL: no CSV header found for $fn in $file" >&2
    status=1
    continue
  fi
  for col in $columns; do
    checked=$((checked + 1))
    if ! grep -qF "\`$col\`" "$doc"; then
      echo "FAIL: $fn ($file) writes column '$col', not documented in $doc" >&2
      status=1
    fi
  done
done <<'EOF'
src/sim/report.cpp write_csv
src/sim/report.cpp write_node_csv
src/sim/report.cpp write_edge_csv
src/sim/report.cpp write_query_csv
src/net/netstats.cpp write_netstats_csv
EOF

if [ "$status" -eq 0 ]; then
  echo "OK: all $checked CSV columns are documented in $doc"
fi
exit "$status"
