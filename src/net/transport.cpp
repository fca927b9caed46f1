#include "net/transport.hpp"

#include "support/error.hpp"

namespace rex::net {

Transport::Transport(std::size_t node_count)
    : outboxes_(node_count), inboxes_(node_count), traffic_(node_count) {}

void Transport::flush_round() {
  // Sender-major routing: each inbox receives envelopes in (sender id, send
  // order) sequence, appended after whatever earlier flushes left there.
  for (EnvelopeFifo& outbox : outboxes_) {
    while (!outbox.empty()) {
      Envelope env = outbox.pop_front();
      record_send(env);
      record_delivery(env);
      inboxes_[env.dst].push_back(std::move(env));
    }
  }
}

std::vector<Envelope> Transport::drain_inbox(NodeId node) {
  std::vector<Envelope> out;
  drain_inbox(node, out);
  return out;
}

void Transport::drain_inbox(NodeId node, std::vector<Envelope>& out) {
  check_node(node);
  EnvelopeFifo& inbox = inboxes_[node];
  out.clear();
  out.reserve(inbox.size());
  while (!inbox.empty()) out.push_back(inbox.pop_front());
}

std::size_t Transport::inbox_size(NodeId node) const {
  check_node(node);
  return inboxes_[node].size();
}

std::vector<Envelope> Transport::take_outbox(NodeId src) {
  std::vector<Envelope> out;
  take_outbox(src, out);
  return out;
}

void Transport::take_outbox(NodeId src, std::vector<Envelope>& out) {
  check_node(src);
  EnvelopeFifo& outbox = outboxes_[src];
  out.reserve(out.size() + outbox.size());
  while (!outbox.empty()) {
    out.push_back(outbox.pop_front());
  }
}

std::uint64_t Transport::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const TrafficStats& t : traffic_) total += t.bytes_sent;
  return total;
}

}  // namespace rex::net
