#!/usr/bin/env bash
# Orphan-header check: every header under src/ must be included by at least
# one file in src/, tests/, bench/, examples/, tools/ or rexbench/. A header
# nothing includes is dead code that the compiler never sees, so it can rot
# unnoticed. Headers are included by their path relative to src/
# (`#include "support/pool.hpp"`), which is the form matched here. Run from
# anywhere; CI runs it on every push.
set -u
cd "$(dirname "$0")/.."

dirs=(src tests bench examples tools rexbench)
existing=()
for d in "${dirs[@]}"; do
  [ -d "$d" ] && existing+=("$d")
done

# Every quoted include target in the tree, one per line.
included=$(grep -rhoE '#include[[:space:]]+"[^"]+"' "${existing[@]}" |
             sed -E 's/.*"([^"]+)"/\1/' | sort -u)

status=0
while IFS= read -r header; do
  rel=${header#src/}
  if ! grep -qxF "$rel" <<<"$included"; then
    echo "FAIL: $header is not included by any file in ${existing[*]}" >&2
    status=1
  fi
done < <(find src -type f \( -name '*.hpp' -o -name '*.h' \) | sort)

if [ "$status" -eq 0 ]; then
  echo "OK: every header under src/ is included somewhere"
fi
exit "$status"
