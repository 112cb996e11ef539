#include "vcluster/mailbox.hpp"

#include <chrono>
#include <thread>

#include "fault/injector.hpp"
#include "util/hot.hpp"

namespace awp::vcluster {

namespace {

// How long a receiver polls for its message before it blocks on the
// condition variable. Lockstep ranks mostly wait less than this for a
// neighbour's halo. A blocked receiver costs the sender a futex wake and
// costs itself a return from an idle CPU, which on a VM means a host
// reschedule whose latency follows host load. Past the budget the
// receiver blocks, so waiting on a slow or stalled peer burns no CPU.
constexpr auto kPollBudget = std::chrono::microseconds(300);
// Polls before the loop starts yielding its CPU to other runnable threads.
constexpr unsigned kPausePolls = 256;

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

void Mailbox::push(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(msg));
    arrivals_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
}

bool Mailbox::awaitArrival(
    std::uint64_t seen, std::chrono::steady_clock::time_point deadline) const {
  for (unsigned n = 0;; ++n) {
    if (arrivals_.load(std::memory_order_acquire) != seen) return true;
    if (n % 64 == 63 && std::chrono::steady_clock::now() >= deadline)
      return false;
    if (n < kPausePolls)
      cpuRelax();
    else
      std::this_thread::yield();
  }
}

bool Mailbox::extractLocked(int src, int tag, std::uint64_t epoch,
                            Message& out) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->src != src || it->tag != tag) {
      ++it;
      continue;
    }
    if (it->epoch < epoch) {
      // Mail from a dead incarnation: discard so a replayed exchange under
      // the new epoch cannot consume a stale payload.
      it = queue_.erase(it);
      if (fencedCounter_ != nullptr)
        fencedCounter_->fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (it->epoch > epoch) {
      // Mail from a NEWER incarnation than this receiver: leave it queued
      // for the receiver's post-resume replay (the receiver is about to
      // fence out of this wait).
      ++it;
      continue;
    }
    out = std::move(*it);
    queue_.erase(it);
    return true;
  }
  return false;
}

Message Mailbox::popMatch(int src, int tag) {
  return popMatch(src, tag, EpochGuard{});
}

Message Mailbox::popMatch(int src, int tag, const EpochGuard& guard) {
  if (fault::injectionEnabled()) {
    // Receive-side stall: this rank goes quiet for a while before it starts
    // waiting, letting chaos tests model a slow/hung peer (§III.F).
    if (auto act = fault::activeInjector()->check("mailbox.pop",
                                                  fault::threadRank());
        act && act->kind == fault::FaultKind::RankStall)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(act->stallSeconds));
  }
  std::unique_lock<std::mutex> lock(mutex_);
  Message out;
  bool got = false;
  auto ready = [&] {
    // Fence first: a fenced receiver must never consume a message, even a
    // matching one — the replacement incarnation will re-run the exchange.
    if (guard.fenced()) return true;
    got = extractLocked(src, tag, guard.mine, out);
    return got;
  };
  // Poll first, then block. Every push and wakeAll bumps arrivals_, so
  // each one the receiver would be notified of also ends a poll.
  bool done = ready();
  const auto deadline = std::chrono::steady_clock::now() + kPollBudget;
  while (!done) {
    const std::uint64_t seen = arrivals_.load(std::memory_order_relaxed);
    lock.unlock();
    const bool arrived = awaitArrival(seen, deadline);
    lock.lock();
    if (!arrived) break;
    done = ready();
  }
  if (!done) cv_.wait(lock, ready);
  if (!got)
    throw EpochFenced(fault::threadRank(), guard.mine,
                      guard.current->load(std::memory_order_acquire));
  return out;
}

bool Mailbox::tryPopMatch(int src, int tag, Message& out) {
  // Epoch-agnostic (diagnostic/test path): first (src, tag) match wins.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      out = std::move(*it);
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

AWP_HOT void Mailbox::wakeAll() {
  // Take the lock briefly so a waiter past its predicate check cannot miss
  // the notification, then notify outside the critical section.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    arrivals_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
}

std::size_t Mailbox::purgeBelow(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dropped = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->epoch < epoch) {
      it = queue_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0 && fencedCounter_ != nullptr)
    fencedCounter_->fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

std::size_t Mailbox::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace awp::vcluster
