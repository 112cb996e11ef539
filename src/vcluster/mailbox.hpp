#pragma once
// Per-rank mailbox for the virtual cluster. Messages are matched on
// (source, tag) exactly as MPI point-to-point envelopes; out-of-order
// arrival across different (source, tag) pairs is allowed, which is what
// the paper's asynchronous communication redesign relies on (§IV.A:
// "unique tagging to avoid source/destination ambiguity ... allows
// out-of-order arrival and the unique tags maintain data integrity").
//
// Messages additionally carry the sender's incarnation epoch (see
// epoch.hpp). Under a SupervisedCluster a respawn bumps the cluster
// epoch; matches from an older epoch are from a dead incarnation and are
// silently discarded instead of delivered, and blocked receivers holding
// a fenced EpochGuard wake and throw EpochFenced.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "util/guarded.hpp"
#include "vcluster/epoch.hpp"

namespace awp::vcluster {

struct Message {
  int src = -1;
  int tag = 0;
  std::uint64_t epoch = 0;  // sender's incarnation epoch
  std::vector<std::byte> payload;
};

class Mailbox {
 public:
  void push(Message msg);

  // Block until a message with matching (src, tag) arrives, then remove and
  // return it. FIFO among messages with the same envelope. The guarded
  // overload delivers only messages stamped with guard.mine, discards
  // stale-epoch matches, and throws EpochFenced when the guard fences.
  Message popMatch(int src, int tag);
  Message popMatch(int src, int tag, const EpochGuard& guard);

  // Non-blocking variant; returns false if no match is queued.
  bool tryPopMatch(int src, int tag, Message& out);

  // Wake every blocked receiver so it can re-check its EpochGuard. Called
  // by the respawn supervisor right after bumping the cluster epoch.
  // Registered hot path: no allocation, no throw.
  void wakeAll();

  // Drop every queued message stamped below `epoch` (dead-incarnation
  // mail that no live receiver will ever match). Returns the drop count.
  std::size_t purgeBelow(std::uint64_t epoch);

  // Number of currently queued messages (for tests / diagnostics).
  std::size_t depth() const;

  // Where to count discarded stale-epoch messages (CommStats wiring;
  // nullptr = uncounted).
  void setFencedCounter(std::atomic<std::uint64_t>* counter) {
    fencedCounter_ = counter;
  }

 private:
  // Finds the first queued match stamped with `epoch`, discarding older
  // stamps along the way.
  bool extractLocked(int src, int tag, std::uint64_t epoch, Message& out)
      AWP_REQUIRES(mutex_);
  // Polls, without the lock, until arrivals_ moves past `seen` (true) or
  // the deadline passes (false).
  bool awaitArrival(std::uint64_t seen,
                    std::chrono::steady_clock::time_point deadline) const;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_ AWP_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t>* fencedCounter_ = nullptr;
  // Bumped under mutex_ by every push and wakeAll, so a receiver polling
  // outside the lock sees any change it would be notified of.
  std::atomic<std::uint64_t> arrivals_{0};
};

}  // namespace awp::vcluster
