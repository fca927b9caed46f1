// Calendar queue: randomized equivalence against std::priority_queue (the
// reference heap ordering the engine used before PR 2), including exact
// FIFO tie-breaking, batch pops, resize churn and degenerate schedules.
#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "sim/event.hpp"
#include "support/calendar_queue.hpp"
#include "support/rng.hpp"

namespace rex::sim {
namespace {

using Queue = CalendarQueue<Event, EventCalendarKey>;
using Heap = std::priority_queue<Event, std::vector<Event>, EventAfter>;

Event make_event(SimTime time, std::uint64_t seq) {
  Event event;
  event.time = time;
  event.seq = seq;
  event.node = static_cast<net::NodeId>(seq % 977);
  event.kind = static_cast<EventKind>(seq % 4);
  return event;
}

/// Draws a time from one of several shapes: uniform spread, heavy ties,
/// tight clusters and far-future outliers — the schedules a simulation
/// actually produces.
double draw_time(Rng& rng, double now) {
  switch (rng.uniform(4)) {
    case 0: return now + rng.uniform01() * 1e-2;           // near future
    case 1: return now + static_cast<double>(rng.uniform(8)) * 1e-4;  // ties
    case 2: return now;                                     // exact tie
    default: return now + rng.uniform01() * 10.0;           // far tail
  }
}

TEST(CalendarQueue, FuzzMatchesHeapPopOrderIncludingTies) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 7919);
    Queue calendar;
    Heap heap;
    std::uint64_t seq = 0;
    double now = 0.0;
    for (int step = 0; step < 20000; ++step) {
      const bool push = heap.empty() || rng.uniform(100) < 55;
      if (push) {
        const Event event = make_event(SimTime{draw_time(rng, now)}, seq++);
        calendar.push(event);
        heap.push(event);
      } else {
        ASSERT_FALSE(calendar.empty());
        const Event expected = heap.top();
        heap.pop();
        const Event& peeked = calendar.top();
        EXPECT_EQ(peeked.seq, expected.seq);
        const Event actual = calendar.pop();
        ASSERT_EQ(actual.seq, expected.seq) << "seed " << seed;
        EXPECT_EQ(actual.time, expected.time);
        now = actual.time.seconds;  // monotone, like the engine clock
      }
      ASSERT_EQ(calendar.size(), heap.size());
    }
    // Drain: the full remaining order must match.
    while (!heap.empty()) {
      const Event expected = heap.top();
      heap.pop();
      const Event actual = calendar.pop();
      ASSERT_EQ(actual.seq, expected.seq) << "seed " << seed;
    }
    EXPECT_TRUE(calendar.empty());
  }
}

TEST(CalendarQueue, BatchPopsEqualTimeRunsInSeqOrder) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    Rng rng(seed);
    Queue calendar;
    Heap heap;
    std::uint64_t seq = 0;
    double now = 0.0;
    std::vector<Event> batch;
    for (int round = 0; round < 3000; ++round) {
      const std::size_t pushes = 1 + rng.uniform(4);
      for (std::size_t i = 0; i < pushes; ++i) {
        const Event event = make_event(SimTime{draw_time(rng, now)}, seq++);
        calendar.push(event);
        heap.push(event);
      }
      if (rng.uniform(100) < 60 && !heap.empty()) {
        batch.clear();
        calendar.pop_time_batch(batch);
        ASSERT_FALSE(batch.empty());
        for (const Event& event : batch) {
          ASSERT_FALSE(heap.empty());
          EXPECT_EQ(event.seq, heap.top().seq);
          EXPECT_EQ(event.time, heap.top().time);
          heap.pop();
        }
        // The batch took *every* event at that timestamp.
        EXPECT_TRUE(heap.empty() || !(heap.top().time == batch.front().time));
        now = batch.front().time.seconds;
      }
    }
  }
}

TEST(CalendarQueue, AllTiesDegeneratesToHeapSemantics) {
  // Every event at one timestamp (a barrier-like schedule): the width fit
  // keeps its old value, everything collapses into one bucket, and the
  // pop order is still exact FIFO.
  Queue calendar;
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    calendar.push(make_event(SimTime{1.0}, seq));
  }
  std::vector<Event> batch;
  calendar.pop_time_batch(batch);
  ASSERT_EQ(batch.size(), 500u);
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    EXPECT_EQ(batch[seq].seq, seq);
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueue, GrowShrinkCycleKeepsOrder) {
  Queue calendar;
  Heap heap;
  std::uint64_t seq = 0;
  // Grow to 20k, drain to 10, grow again — exercises both resize
  // directions and the far-tail direct search.
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const Event event =
        make_event(SimTime{rng.uniform01() * 100.0}, seq++);
    calendar.push(event);
    heap.push(event);
  }
  for (int i = 0; i < 19990; ++i) {
    ASSERT_EQ(calendar.pop().seq, heap.top().seq);
    heap.pop();
  }
  EXPECT_GT(calendar.stats().resizes, 0u);
  for (int i = 0; i < 5000; ++i) {
    const Event event =
        make_event(SimTime{100.0 + rng.uniform01()}, seq++);
    calendar.push(event);
    heap.push(event);
  }
  while (!heap.empty()) {
    ASSERT_EQ(calendar.pop().seq, heap.top().seq);
    heap.pop();
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueue, TopIsStableAndThrowsWhenEmpty) {
  Queue calendar;
  EXPECT_THROW((void)calendar.top(), Error);
  calendar.push(make_event(SimTime{2.0}, 7));
  calendar.push(make_event(SimTime{1.0}, 9));
  EXPECT_EQ(calendar.top().seq, 9u);
  EXPECT_EQ(calendar.top().seq, 9u);  // cached lookup, same answer
  calendar.push(make_event(SimTime{0.5}, 11));
  EXPECT_EQ(calendar.top().seq, 11u);  // new minimum beats the cache
  EXPECT_EQ(calendar.pop().seq, 11u);
  EXPECT_EQ(calendar.pop().seq, 9u);
  EXPECT_EQ(calendar.pop().seq, 7u);
  EXPECT_THROW((void)calendar.pop(), Error);
}

}  // namespace
}  // namespace rex::sim
