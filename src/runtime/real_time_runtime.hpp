// Real-clock Runtime: the deployment counterpart of sim::Simulator. Runs the
// same EventQueue of UniqueFunction timers, but `now()` is the monotonic
// wall clock and the loop sleeps in poll(2) until the next timer is due or a
// watched file descriptor becomes readable (the UDP transport's socket).
//
// Single-threaded by design, like the simulator: every timer and I/O
// callback runs on the thread inside run()/run_until(), so protocol code
// needs no locking in either runtime. Two cross-thread entry points exist:
// stop() (atomic flag + wake signal; also async-signal-safe) and
// post_from_any_thread() (lock-free mailbox + wake signal) — the door the
// sharded server's cross-shard traffic travels through. The wake signal is
// an eventfd (self-pipe elsewhere) watched by the poll loop, so a sleeping
// shard reacts to mailed work immediately instead of at the idle-poll cap.
#pragma once

#include <poll.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "common/rng.hpp"
#include "common/unique_function.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/runtime.hpp"

namespace dataflasks::runtime {

class RealTimeRuntime final : public Runtime {
 public:
  using FdHandler = MoveOnlyFunction<void()>;

  explicit RealTimeRuntime(std::uint64_t seed);
  ~RealTimeRuntime() override;

  /// Microseconds of steady-clock time since construction. Monotonic, so
  /// SimTime arithmetic written against the simulator behaves identically.
  [[nodiscard]] SimTime now() const override;

  /// Microseconds since the Unix epoch: comparable across processes, for
  /// stamps that replicate (TTL deadlines). Not monotonic under NTP steps.
  [[nodiscard]] SimTime wall_now() const override;

  [[nodiscard]] Rng& rng() override { return rng_; }

  TimerHandle schedule_at(SimTime at, UniqueFunction fn) override;
  void post_at(SimTime at, UniqueFunction fn) override;

  /// Cross-thread work submission: pushes `fn` onto the lock-free mailbox
  /// and wakes the poll loop. The closure runs on this runtime's thread,
  /// interleaved with timers exactly like a locally posted event. Safe from
  /// any thread, including while run() is sleeping in poll(2).
  void post_from_any_thread(UniqueFunction fn) override;

  /// Watches `fd` for readability; `on_readable` runs on the loop thread
  /// every time poll reports POLLIN/POLLERR/POLLHUP. Level-triggered: the
  /// handler must drain the descriptor. Replaces any previous handler.
  void watch_fd(int fd, FdHandler on_readable);
  void unwatch_fd(int fd);

  /// Watches `fd` for writability; `on_writable` runs on the loop thread
  /// every time poll reports POLLOUT/POLLERR/POLLHUP. Level-triggered, so
  /// callers unwatch once their egress queue drains (or the nonblocking
  /// connect resolves) — a permanently-writable socket would otherwise spin
  /// the loop. Independent of the read watch on the same fd: an fd may hold
  /// one of each. Replaces any previous writable handler.
  void watch_fd_writable(int fd, FdHandler on_writable);
  void unwatch_fd_writable(int fd);

  /// Runs timers and I/O until stop() is called. Returns events executed
  /// (timer firings + I/O handler invocations).
  std::uint64_t run();

  /// Runs until the wall clock reaches `deadline` (in now() coordinates) or
  /// stop() is called, whichever is first.
  std::uint64_t run_until(SimTime deadline);

  /// Convenience: run_until(now() + duration).
  std::uint64_t run_for(SimTime duration);

  /// Makes run()/run_until() return after the current callback completes.
  /// Async-signal-safe and callable from other threads; the wake signal
  /// means a shard sleeping in poll(2) stops promptly, not at the idle cap.
  void stop();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// User-watched descriptors (the internal wake descriptor is excluded).
  [[nodiscard]] std::size_t watched_fds() const { return fds_.size() - 1; }
  /// Closures executed off the cross-thread mailbox (tests/metrics).
  [[nodiscard]] std::uint64_t mailbox_drained() const {
    return mailbox_drained_.load(std::memory_order_relaxed);
  }

 private:
  struct Watch {
    int fd;
    FdHandler handler;
  };

  /// Watch-list mutation requested from inside an fd handler: applied after
  /// the dispatch loop so the executing closure is never reallocated or
  /// destroyed out from under itself.
  struct DeferredOp {
    enum Kind { kWatchRead, kUnwatchRead, kWatchWrite, kUnwatchWrite };
    Kind kind;
    int fd;
    FdHandler handler;
  };

  /// Sleeps in poll(2) for at most `timeout` and dispatches ready fds.
  /// Returns the number of handler invocations.
  std::uint64_t poll_io(SimTime timeout);

  /// True when a deferred op leaves (fd, direction) unwatched, so a handler
  /// that unwatched a peer mid-round is not invoked for it afterwards.
  [[nodiscard]] bool deferred_removes(int fd, bool writable) const;
  void apply_deferred();

  /// Writes one token to the wake descriptor (async-signal-safe).
  void signal_wake();
  /// Drains the wake descriptor and runs every mailed closure. Returns the
  /// number of closures executed.
  std::uint64_t drain_mailbox();

  /// Caps idle sleeps so a cross-thread stop() is honoured promptly even
  /// when no timer is due and no fd turns readable.
  static constexpr SimTime kMaxPollWait = 50 * kMillis;

  std::chrono::steady_clock::time_point origin_;
  EventQueue queue_;
  Rng rng_;
  std::vector<Watch> fds_;
  /// Writable watches, disjoint from fds_: stream connections add one while
  /// a nonblocking connect is in flight or their egress queue is non-empty,
  /// and remove it the moment the socket drains.
  std::vector<Watch> write_fds_;
  /// poll(2) argument array, rebuilt lazily after watch/unwatch — the loop
  /// itself stays allocation-free per wakeup (the watch set is effectively
  /// static: one socket per transport).
  std::vector<pollfd> pollfds_;
  bool pollfds_stale_ = true;
  /// (fd, revents) pairs collected before dispatch; handlers may mutate the
  /// watch lists, so iteration never touches pollfds_/fds_ directly.
  std::vector<pollfd> ready_scratch_;
  bool dispatching_ = false;
  std::vector<DeferredOp> deferred_;
  /// Release/acquire: a loop that sees the flag also sees everything its
  /// stopper wrote before stop().
  std::atomic<bool> stop_{false};

  // Cross-thread wake-up plumbing: wake_rx_ is watched by the poll loop;
  // wake_tx_ is what producers (and stop()) write to. With eventfd both are
  // the same descriptor; the pipe fallback uses two.
  Mailbox mailbox_;
  int wake_rx_ = -1;
  int wake_tx_ = -1;
  std::atomic<std::uint64_t> mailbox_drained_{0};
};

}  // namespace dataflasks::runtime
