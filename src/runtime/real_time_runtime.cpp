#include "runtime/real_time_runtime.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <utility>

#if defined(__linux__)
#include <sys/eventfd.h>
#endif

#include "common/ensure.hpp"

namespace dataflasks::runtime {

RealTimeRuntime::RealTimeRuntime(std::uint64_t seed)
    : origin_(std::chrono::steady_clock::now()), rng_(seed) {
#if defined(__linux__)
  wake_rx_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ensure(wake_rx_ >= 0, "RealTimeRuntime: eventfd failed");
  wake_tx_ = wake_rx_;
#else
  int fds[2];
  ensure(::pipe(fds) == 0, "RealTimeRuntime: pipe failed");
  for (int fd : fds) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  wake_rx_ = fds[0];
  wake_tx_ = fds[1];
#endif
  // The wake descriptor rides the ordinary watch list: readable means
  // "mailed work (or a stop) is pending", and the handler drains both the
  // descriptor and the mailbox on the loop thread.
  watch_fd(wake_rx_, [this] { drain_mailbox(); });
}

RealTimeRuntime::~RealTimeRuntime() {
  if (wake_tx_ >= 0 && wake_tx_ != wake_rx_) ::close(wake_tx_);
  if (wake_rx_ >= 0) ::close(wake_rx_);
}

SimTime RealTimeRuntime::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SimTime RealTimeRuntime::wall_now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

TimerHandle RealTimeRuntime::schedule_at(SimTime at, UniqueFunction fn) {
  // Unlike the simulator there is no "scheduling in the past" invariant:
  // wall time advances between the caller reading now() and us enqueueing,
  // so an overdue event simply fires on the next loop iteration.
  auto alive = std::make_shared<bool>(true);
  queue_.push(at, std::move(fn), alive);
  return TimerHandle(std::move(alive));
}

void RealTimeRuntime::post_at(SimTime at, UniqueFunction fn) {
  queue_.push(at, std::move(fn));
}

void RealTimeRuntime::post_from_any_thread(UniqueFunction fn) {
  mailbox_.push(std::move(fn));
  signal_wake();
}

void RealTimeRuntime::stop() {
  stop_.store(true, std::memory_order_release);
  signal_wake();
}

void RealTimeRuntime::signal_wake() {
  // Only async-signal-safe calls here: stop() runs from SIGINT/SIGTERM.
  const std::uint64_t one = 1;
#if defined(__linux__)
  [[maybe_unused]] ssize_t n = ::write(wake_tx_, &one, sizeof(one));
#else
  const char token = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_tx_, &token, 1);
#endif
  // A full pipe/counter means a wake-up is already pending; nothing to do.
}

std::uint64_t RealTimeRuntime::drain_mailbox() {
  // Reset the wake signal first: a push that lands after this read re-arms
  // it, so its closure is seen either by this drain or the next poll pass.
#if defined(__linux__)
  std::uint64_t counter = 0;
  while (::read(wake_rx_, &counter, sizeof(counter)) > 0) {
  }
#else
  char buf[256];
  while (::read(wake_rx_, buf, sizeof(buf)) > 0) {
  }
#endif
  std::uint64_t drained = 0;
  drained = mailbox_.drain([](UniqueFunction fn) { fn(); });
  mailbox_drained_.fetch_add(drained, std::memory_order_relaxed);
  return drained;
}

void RealTimeRuntime::watch_fd(int fd, FdHandler on_readable) {
  ensure(fd >= 0, "RealTimeRuntime::watch_fd negative fd");
  // Mutating the watch lists while poll_io is dispatching would reallocate
  // or destroy the very closure that is executing (a listener's read
  // handler accepts and watches a new fd; a connection unwatches itself on
  // close), so mid-dispatch mutations are queued and applied afterwards.
  if (dispatching_) {
    deferred_.push_back(DeferredOp{DeferredOp::kWatchRead, fd,
                                   std::move(on_readable)});
    return;
  }
  for (Watch& w : fds_) {
    if (w.fd == fd) {
      w.handler = std::move(on_readable);
      return;
    }
  }
  fds_.push_back(Watch{fd, std::move(on_readable)});
  pollfds_stale_ = true;
}

void RealTimeRuntime::unwatch_fd(int fd) {
  if (dispatching_) {
    deferred_.push_back(DeferredOp{DeferredOp::kUnwatchRead, fd, nullptr});
    return;
  }
  if (std::erase_if(fds_, [fd](const Watch& w) { return w.fd == fd; }) > 0) {
    pollfds_stale_ = true;
  }
}

void RealTimeRuntime::watch_fd_writable(int fd, FdHandler on_writable) {
  ensure(fd >= 0, "RealTimeRuntime::watch_fd_writable negative fd");
  if (dispatching_) {
    deferred_.push_back(DeferredOp{DeferredOp::kWatchWrite, fd,
                                   std::move(on_writable)});
    return;
  }
  for (Watch& w : write_fds_) {
    if (w.fd == fd) {
      w.handler = std::move(on_writable);
      return;
    }
  }
  write_fds_.push_back(Watch{fd, std::move(on_writable)});
  pollfds_stale_ = true;
}

void RealTimeRuntime::unwatch_fd_writable(int fd) {
  if (dispatching_) {
    deferred_.push_back(DeferredOp{DeferredOp::kUnwatchWrite, fd, nullptr});
    return;
  }
  if (std::erase_if(write_fds_,
                    [fd](const Watch& w) { return w.fd == fd; }) > 0) {
    pollfds_stale_ = true;
  }
}

bool RealTimeRuntime::deferred_removes(int fd, bool writable) const {
  // The last queued op for (fd, direction) decides: an unwatch followed by
  // a fresh watch (fd number reused within one dispatch round) keeps the
  // new watch live.
  const DeferredOp::Kind unwatch =
      writable ? DeferredOp::kUnwatchWrite : DeferredOp::kUnwatchRead;
  const DeferredOp::Kind watch =
      writable ? DeferredOp::kWatchWrite : DeferredOp::kWatchRead;
  bool removed = false;
  for (const DeferredOp& op : deferred_) {
    if (op.fd != fd) continue;
    if (op.kind == unwatch) removed = true;
    if (op.kind == watch) removed = false;
  }
  return removed;
}

void RealTimeRuntime::apply_deferred() {
  // Ops re-enter watch_fd/unwatch_fd with dispatching_ cleared; applying in
  // queue order preserves unwatch-then-rewatch sequences for reused fds.
  std::vector<DeferredOp> ops = std::move(deferred_);
  deferred_.clear();
  for (DeferredOp& op : ops) {
    switch (op.kind) {
      case DeferredOp::kWatchRead:
        watch_fd(op.fd, std::move(op.handler));
        break;
      case DeferredOp::kUnwatchRead:
        unwatch_fd(op.fd);
        break;
      case DeferredOp::kWatchWrite:
        watch_fd_writable(op.fd, std::move(op.handler));
        break;
      case DeferredOp::kUnwatchWrite:
        unwatch_fd_writable(op.fd);
        break;
    }
  }
}

std::uint64_t RealTimeRuntime::poll_io(SimTime timeout) {
  if (pollfds_stale_) {
    pollfds_.clear();
    pollfds_.reserve(fds_.size() + write_fds_.size());
    for (const Watch& w : fds_) {
      pollfds_.push_back(pollfd{w.fd, POLLIN, 0});
    }
    // An fd watched both ways gets one pollfd with both events set, so poll
    // never sees the same descriptor twice.
    for (const Watch& w : write_fds_) {
      const auto it =
          std::find_if(pollfds_.begin(), pollfds_.end(),
                       [&w](const pollfd& p) { return p.fd == w.fd; });
      if (it != pollfds_.end()) {
        it->events |= POLLOUT;
      } else {
        pollfds_.push_back(pollfd{w.fd, POLLOUT, 0});
      }
    }
    pollfds_stale_ = false;
  }
  // Round the timeout up to whole milliseconds so a timer due in 300us does
  // not busy-spin through zero-timeout polls.
  const SimTime capped = std::clamp<SimTime>(timeout, 0, kMaxPollWait);
  const int timeout_ms =
      static_cast<int>((capped + kMillis - 1) / kMillis);
  const int ready = ::poll(pollfds_.data(), pollfds_.size(), timeout_ms);
  if (ready <= 0) return 0;  // timeout, or EINTR (stop_ is re-checked)

  // Collect ready descriptors first: a handler may watch/unwatch fds, which
  // would invalidate iteration over fds_/pollfds_ themselves.
  ready_scratch_.clear();
  for (const pollfd& p : pollfds_) {
    if ((p.revents & (POLLIN | POLLOUT | POLLERR | POLLHUP)) != 0) {
      ready_scratch_.push_back(p);
    }
  }
  std::uint64_t dispatched = 0;
  dispatching_ = true;
  for (std::size_t i = 0; i < ready_scratch_.size(); ++i) {
    const int fd = ready_scratch_[i].fd;
    const short revents = ready_scratch_[i].revents;
    if (stop_.load(std::memory_order_acquire)) break;
    // Errors and hangups wake both directions: a reader learns about the
    // close, and a connection mid-connect learns about the failure.
    if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
        !deferred_removes(fd, /*writable=*/false)) {
      const auto it =
          std::find_if(fds_.begin(), fds_.end(),
                       [fd](const Watch& w) { return w.fd == fd; });
      if (it != fds_.end()) {
        it->handler();
        ++dispatched;
      }
    }
    if ((revents & (POLLOUT | POLLERR | POLLHUP)) != 0 &&
        !deferred_removes(fd, /*writable=*/true)) {
      const auto it =
          std::find_if(write_fds_.begin(), write_fds_.end(),
                       [fd](const Watch& w) { return w.fd == fd; });
      if (it != write_fds_.end()) {
        it->handler();
        ++dispatched;
      }
    }
  }
  dispatching_ = false;
  apply_deferred();
  return dispatched;
}

std::uint64_t RealTimeRuntime::run_until(SimTime deadline) {
  stop_.store(false, std::memory_order_relaxed);
  std::uint64_t executed = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    // Fire everything due by the current wall clock.
    const SimTime wall = now();
    while (!queue_.empty() && queue_.next_time() <= wall &&
           !stop_.load(std::memory_order_acquire)) {
      EventQueue::Event event = queue_.pop();
      if (event.runnable()) {
        event.fn();
        ++executed;
      }
    }
    if (stop_.load(std::memory_order_acquire)) break;

    const SimTime after = now();
    if (after >= deadline) break;
    SimTime wait = deadline - after;
    if (!queue_.empty()) {
      wait = std::min(wait, std::max<SimTime>(queue_.next_time() - after, 0));
    }
    executed += poll_io(wait);
  }
  return executed;
}

std::uint64_t RealTimeRuntime::run() {
  return run_until(std::numeric_limits<SimTime>::max());
}

std::uint64_t RealTimeRuntime::run_for(SimTime duration) {
  ensure(duration >= 0, "RealTimeRuntime::run_for negative duration");
  return run_until(now() + duration);
}

}  // namespace dataflasks::runtime
