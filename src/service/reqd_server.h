// ReqdServer: the TCP front end of the multi-tenant quantile service.
// Accepts connections on a loopback/IPv4 address and speaks the
// length-prefixed protocol of service/wire_protocol.h against a shared
// SketchRegistry.
//
// Concurrency model: an epoll reactor (the C10K shape). One accept
// thread distributes accepted fds round-robin over N event-loop workers
// (default: hardware concurrency); each worker owns an epoll set, an
// eventfd for wakeups/handoff, a timer wheel, and the full state of the
// connections assigned to it -- no connection is ever touched by two
// threads, which is what keeps the reactor trivially race-free under
// TSan. Per connection the worker drives a small non-blocking state
// machine:
//
//   readable --> recv until EAGAIN --> FrameDecoder --> HandleFrame
//      ^                                                   |
//      |        (responses encode into a per-connection    v
//   EPOLLOUT <-- output buffer; writev flushes both -- staging buffer
//                halves in one syscall, EAGAIN arms EPOLLOUT)
//
// The output queue is a double buffer: `pending` is the run currently
// being flushed (from an offset) and `staging` is where new responses
// encode; one gather-write (WritevNonBlocking) sends both, and when
// `pending` drains the two swap so allocations recycle. A peer that
// queries faster than it reads answers trips kMaxOutboundBytes and has
// its reads paused until the queue flushes -- backpressure, not OOM.
//
// Hostile-network posture (exercised by tests/service_chaos_test.cc and
// tests/service_reactor_test.cc via service/chaos_proxy.h):
//   * Idle reaping now runs on a per-worker timer wheel (25ms ticks,
//     lazy cancellation): re-arming on every delivered byte is a field
//     write, and a slow loris mid-frame is reaped after idle_timeout_ms
//     without the reactor ever polling per-connection.
//   * max_connections caps live connections. At the cap, a new
//     connection is answered with a single kOverloaded frame and closed
//     -- a typed rejection the client can back off on, never a silent
//     hang in the accept backlog.
//   * request_budget_ms bounds time-to-first-dispatch per frame. The
//     budget is stamped when the batch of bytes ARRIVES, so pipelined
//     frames queued behind a slow request inherit the wait they already
//     paid. A frame whose budget is spent before dispatch answers
//     kDeadlineExceeded with no work done; after dispatch only read-only
//     ops convert to kDeadlineExceeded -- a mutation that applied is
//     always acked (kAppend/kFlush carry the accepted count the client
//     reconciles against; answering "timeout" after the fact would
//     desync that accounting).
//   * A peer that takes NO response bytes for send_timeout_ms while the
//     server holds un-flushed output is closed (the write-stall reap;
//     the old thread-per-connection server blocked in send here).
//   * Drain() finishes in-flight frames, answers them, then closes:
//     the graceful half of shutdown, with Stop() as the hard half.
//   * Transient accept failures (EMFILE/ENFILE/ENOBUFS) back off instead
//     of hot-spinning: the listener stays readable, so retrying accept
//     immediately would burn a core until an fd frees.
//
// Error handling per frame:
//   * A malformed payload inside a well-delimited frame (bad opcode, bad
//     enum, truncated body) answers kBadRequest and the connection lives
//     on -- framing is still in sync.
//   * A corrupt length prefix (0 or > max payload) means the byte stream
//     itself has lost sync: the server answers one kBadRequest frame
//     best-effort and closes the connection once it flushes.
//   * Registry/engine exceptions map to statuses: MetricNotFound ->
//     kNotFound, MetricExists -> kExists, invalid_argument / logic_error /
//     runtime_error -> kBadRequest, anything else -> kError. The server
//     never dies on a request.
//
// Lifecycle: Start() binds/listens (port 0 picks an ephemeral port,
// re-read via port() -- how the tests and benches run parallel-safe
// loopback instances), builds the worker pool, and spawns the loops;
// Stop() shuts the listener, wakes every worker, and joins everything.
// The destructor calls Stop().
#ifndef REQSKETCH_SERVICE_REQD_SERVER_H_
#define REQSKETCH_SERVICE_REQD_SERVER_H_

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "persist/io_injector.h"
#include "service/sketch_registry.h"
#include "service/socket_util.h"
#include "service/wire_protocol.h"
#include "util/validation.h"

namespace req {
namespace service {

struct ReqdServerConfig {
  std::string bind_address = "127.0.0.1";
  // 0: pick an ephemeral port (read it back via port()).
  uint16_t port = 0;
  // Listen backlog. 0 = auto: scales with max_connections, floor 1024
  // (the old fixed 64 dropped SYNs under a C10K connect burst; the
  // kernel clamps to somaxconn either way).
  int backlog = 0;
  // Event-loop worker threads. 0 = hardware concurrency (min 1).
  uint32_t workers = 0;
  // Connection cap; above it new connections get one kOverloaded frame
  // and a close instead of a worker slot. 0 = uncapped.
  uint64_t max_connections = 0;
  // Reap a connection that has gone this long without delivering a byte
  // (slow loris, dead NAT entries). 0 = never reap.
  uint64_t idle_timeout_ms = 0;
  // Per-frame time budget, stamped at batch arrival; exceeded budgets
  // answer kDeadlineExceeded (see the class comment for the mutation
  // carve-out). 0 = unbounded.
  uint64_t request_budget_ms = 0;
  // Close a connection whose peer takes no response bytes for this long
  // while output is queued (a blackholed downstream must not hold its
  // buffers forever). 0 = unbounded.
  uint64_t send_timeout_ms = 30000;
};

// Pause reading a connection once its un-flushed responses exceed this
// many bytes; reads resume when the queue drains.
inline constexpr uint64_t kMaxOutboundBytes = uint64_t{8} << 20;  // 8 MiB
// Backoff after a transient accept() failure under fd exhaustion.
inline constexpr uint64_t kAcceptBackoffMs = 50;

// A single-level timer wheel: kSlots slots of kTickMs, fds as entries.
// Scheduling and re-arming are O(1); cancellation is lazy -- a fired fd
// may be stale (connection closed or deadline moved), so the fire
// callback re-checks the connection's real deadlines and either acts or
// reschedules. Deadlines past the wheel's horizon park in the furthest
// slot and cascade from there (the reschedule-on-fire path).
class TimerWheel {
 public:
  static constexpr uint64_t kTickMs = 25;
  static constexpr uint64_t kSlots = 256;  // ~6.4s horizon

  explicit TimerWheel(SocketDeadline now) : now_tick_(TickOf(now)) {}

  bool empty() const { return entries_ == 0; }

  // Schedules a fire for `fd` no later than `at` (clamped to the
  // horizon, so possibly earlier); returns the actual fire time so the
  // caller can track the earliest pending fire per connection.
  SocketDeadline Schedule(int fd, SocketDeadline at) {
    uint64_t tick = std::max(TickOf(at), now_tick_ + 1);
    tick = std::min(tick, now_tick_ + kSlots - 1);
    slots_[tick % kSlots].push_back(fd);
    ++entries_;
    return SocketDeadline() + std::chrono::milliseconds(tick * kTickMs);
  }

  // Advances the wheel to `now`, invoking on_fire(fd) for every entry
  // whose slot has come due.
  template <typename OnFire>
  void Advance(SocketDeadline now, OnFire&& on_fire) {
    const uint64_t target = TickOf(now);
    while (now_tick_ < target && entries_ > 0) {
      ++now_tick_;
      std::vector<int>& slot = slots_[now_tick_ % kSlots];
      if (slot.empty()) continue;
      fired_.clear();
      fired_.swap(slot);
      entries_ -= fired_.size();
      for (int fd : fired_) on_fire(fd);
    }
    now_tick_ = std::max(now_tick_, target);
  }

 private:
  static uint64_t TickOf(SocketDeadline t) {
    return static_cast<uint64_t>(
               std::chrono::duration_cast<std::chrono::milliseconds>(
                   t.time_since_epoch())
                   .count()) /
           kTickMs;
  }

  uint64_t now_tick_;
  uint64_t entries_ = 0;
  std::vector<int> fired_;  // scratch, reused across Advance calls
  std::array<std::vector<int>, kSlots> slots_;
};

class ReqdServer {
 public:
  explicit ReqdServer(SketchRegistry* registry,
                      const ReqdServerConfig& config = {})
      : registry_(registry), config_(config) {
    util::CheckArg(registry != nullptr, "registry must not be null");
  }

  ReqdServer(const ReqdServer&) = delete;
  ReqdServer& operator=(const ReqdServer&) = delete;

  ~ReqdServer() { Stop(); }

  static uint32_t EffectiveWorkers(const ReqdServerConfig& config) {
    if (config.workers > 0) return config.workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  static int EffectiveBacklog(const ReqdServerConfig& config) {
    if (config.backlog > 0) return config.backlog;
    const uint64_t scaled = std::max<uint64_t>(config.max_connections, 1024);
    return static_cast<int>(std::min<uint64_t>(scaled, 65535));
  }

  void Start() {
    util::CheckState(!running_.load(), "server already started");
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw std::runtime_error(ErrnoMessage("socket"));
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = ParseIPv4(config_.bind_address);
    addr.sin_port = htons(config_.port);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error(ErrnoMessage("bind"));
    }
    if (::listen(fd.get(), EffectiveBacklog(config_)) != 0) {
      throw std::runtime_error(ErrnoMessage("listen"));
    }
    // Re-read the bound port (meaningful when config_.port == 0).
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      throw std::runtime_error(ErrnoMessage("getsockname"));
    }
    // Build the worker pool before going live so a failure here leaves
    // the server cleanly stopped (local vectors unwind themselves).
    const uint32_t n = EffectiveWorkers(config_);
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      auto w = std::make_unique<Worker>(SocketClock::now());
      w->epoll_fd.Reset(::epoll_create1(EPOLL_CLOEXEC));
      if (!w->epoll_fd.valid()) {
        throw std::runtime_error(ErrnoMessage("epoll_create1"));
      }
      w->event_fd.Reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
      if (!w->event_fd.valid()) {
        throw std::runtime_error(ErrnoMessage("eventfd"));
      }
      epoll_event ev{};
      ev.events = EPOLLIN;  // level-triggered: adoption drains it
      ev.data.fd = w->event_fd.get();
      if (::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_ADD, w->event_fd.get(),
                      &ev) != 0) {
        throw std::runtime_error(ErrnoMessage("epoll_ctl"));
      }
      workers.push_back(std::move(w));
    }
    port_ = ntohs(bound.sin_port);
    listen_fd_ = std::move(fd);
    workers_ = std::move(workers);
    running_.store(true);
    for (auto& w : workers_) {
      Worker* wp = w.get();
      wp->thread = std::thread([this, wp] { WorkerLoop(wp); });
    }
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  void Stop() {
    if (!running_.exchange(false)) return;
    // Wake a blocked accept() early (Linux returns EINVAL); the accept
    // loop's poll timeout bounds the wait even where shutdown() on a
    // listener is a no-op. The fd is closed only AFTER the join: closing
    // it while the accept thread still reads it would be a race (and a
    // potential fd-reuse hazard). The accept thread is joined before
    // the workers so no fd is pushed into an inbox nobody will sweep.
    ::shutdown(listen_fd_.get(), SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    listen_fd_.Reset();
    for (auto& w : workers_) WakeWorker(w.get());
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
    workers_.clear();
  }

  // Graceful shutdown, phase one: stop taking new connections (they shed
  // as kOverloaded), let live connections answer the complete frames
  // they already hold, and close them. Waits up to timeout_ms for the
  // live-connection count to reach zero, then hard-stops whatever is
  // left.
  void Drain(uint64_t timeout_ms = 5000) {
    draining_.store(true, std::memory_order_release);
    for (auto& w : workers_) WakeWorker(w.get());
    const SocketDeadline deadline = DeadlineAfterMs(timeout_ms);
    while (running_.load(std::memory_order_acquire) &&
           SocketClock::now() < deadline) {
      if (live_connections_.load(std::memory_order_acquire) == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Stop();
  }

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  // Event-loop workers currently running (0 when stopped).
  uint64_t WorkerCount() const { return workers_.size(); }

  // Monitoring counters (also exported over the wire via kStats).
  uint64_t ConnectionsAccepted() const { return connections_.load(); }
  uint64_t FramesServed() const { return frames_.load(); }
  // Connections that ended (EOF/reset) with a partial frame still
  // buffered -- each one is a client that died mid-send.
  uint64_t AbortedPartialFrames() const {
    return aborted_partial_frames_.load();
  }
  // Connections answered kOverloaded at the cap (or while draining).
  uint64_t ShedConnections() const { return shed_connections_.load(); }
  // Frames answered kDeadlineExceeded (budget spent).
  uint64_t DeadlineExceededCount() const { return deadline_exceeded_.load(); }
  // Connections reaped by the idle deadline.
  uint64_t IdleReaped() const { return idle_reaped_.load(); }
  // Transient accept() failures (EMFILE and friends) survived.
  uint64_t AcceptFailures() const { return accept_failures_.load(); }
  // Connections currently being served.
  uint64_t LiveConnections() const {
    return live_connections_.load(std::memory_order_acquire);
  }

 private:
  // Per-connection state, owned by exactly one worker. The output queue
  // is the double buffer described in the class comment: `pending` (from
  // `pending_off`) is being flushed, `staging` receives new responses.
  struct Conn {
    explicit Conn(int raw_fd) : fd(raw_fd) {}

    size_t OutboundBytes() const {
      return (pending.size() - pending_off) + staging.size();
    }

    ScopedFd fd;
    FrameDecoder decoder;
    std::vector<uint8_t> pending;
    size_t pending_off = 0;
    std::vector<uint8_t> staging;
    bool want_write = false;       // EPOLLOUT armed
    bool close_after_flush = false;  // stream desynced; error queued
    bool paused_read = false;      // backpressure: outbound over the cap
    SocketDeadline idle_deadline = NoDeadline();
    SocketDeadline write_deadline = NoDeadline();
    // Earliest pending wheel fire for this fd (NoDeadline = none): the
    // wheel is re-entered only when a deadline moves EARLIER than this,
    // so steady-state re-arms never touch the wheel.
    SocketDeadline wheel_deadline = NoDeadline();
  };

  struct Worker {
    explicit Worker(SocketDeadline now) : wheel(now) {}

    ScopedFd epoll_fd;
    ScopedFd event_fd;
    std::thread thread;
    // Handoff from the accept thread; everything else in the struct is
    // touched only by the owning worker thread.
    std::mutex inbox_mutex;
    std::vector<int> inbox;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    TimerWheel wheel;
  };

  static void WakeWorker(Worker* w) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t r =
        ::write(w->event_fd.get(), &one, sizeof(one));
  }

  void AcceptLoop() {
    size_t next_worker = 0;
    while (running_.load(std::memory_order_acquire)) {
      // Poll with a timeout instead of blocking in accept(): Stop() can
      // then flip running_ and join without ever closing the fd under
      // this thread's feet.
      pollfd pfd{};
      pfd.fd = listen_fd_.get();
      pfd.events = POLLIN;
      const int polled = ::poll(&pfd, 1, /*timeout_ms=*/250);
      if (!running_.load(std::memory_order_acquire)) break;
      if (polled <= 0) continue;  // timeout or EINTR: re-check and wait
      const int conn = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (conn < 0) {
        // Only a dead listener ends the loop. Transient failures --
        // EMFILE/ENFILE under fd pressure, ENOBUFS/ENOMEM, an aborted
        // handshake -- must not leave a long-running daemon silently
        // unable to accept forever. The listener stays readable while
        // the backlog holds connections we cannot take, so poll returns
        // immediately and a bare retry would hot-spin at 100% CPU:
        // back off before the next attempt.
        if (errno == EBADF || errno == EINVAL) break;
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        SleepWhileRunning(kAcceptBackoffMs);
        continue;
      }
      SetNoDelay(conn);
      if (!SetNonBlocking(conn)) {
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        ::close(conn);
        continue;
      }
      bool shed = draining_.load(std::memory_order_acquire);
      if (!shed && config_.max_connections > 0) {
        shed = live_connections_.load(std::memory_order_acquire) >=
               config_.max_connections;
      }
      if (shed) {
        // At capacity (or draining): one typed rejection, then close.
        // Status != kOk responses parse regardless of the request opcode
        // the client had in flight, so this unsolicited frame is always
        // intelligible. The send is deadline-bounded -- a shedding
        // server must not be stallable by the peer it is shedding.
        shed_connections_.fetch_add(1, std::memory_order_relaxed);
        ScopedFd rejected(conn);
        Response response;
        response.status = Status::kOverloaded;
        response.error = "server at connection capacity; retry with backoff";
        std::vector<uint8_t> out;
        AppendResponseFrame(Opcode::kPing, response, &out);
        SendAllDeadline(rejected.get(), out.data(), out.size(),
                        DeadlineAfterMs(1000));
        continue;
      }
      connections_.fetch_add(1, std::memory_order_relaxed);
      live_connections_.fetch_add(1, std::memory_order_acq_rel);
      Worker* w = workers_[next_worker++ % workers_.size()].get();
      {
        std::lock_guard<std::mutex> lock(w->inbox_mutex);
        w->inbox.push_back(conn);
      }
      WakeWorker(w);
    }
  }

  // Sleeps in small slices so Stop() is never delayed by a backoff.
  void SleepWhileRunning(uint64_t ms) {
    const SocketDeadline until = DeadlineAfterMs(ms);
    while (running_.load(std::memory_order_acquire) &&
           SocketClock::now() < until) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<uint64_t>(ms, 10)));
    }
  }

  void WorkerLoop(Worker* w) {
    std::vector<uint8_t> payload;  // frame scratch, reused across conns
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    while (running_.load(std::memory_order_acquire)) {
      int timeout_ms =
          w->wheel.empty() ? 250 : static_cast<int>(TimerWheel::kTickMs);
      if (draining_.load(std::memory_order_acquire)) timeout_ms = 10;
      const int n =
          ::epoll_wait(w->epoll_fd.get(), events, kMaxEvents, timeout_ms);
      if (!running_.load(std::memory_order_acquire)) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      bool adopt = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == w->event_fd.get()) {
          adopt = true;
          continue;
        }
        auto it = w->conns.find(fd);
        if (it == w->conns.end()) continue;  // closed earlier this batch
        Conn* c = it->second.get();
        bool alive = true;
        if (events[i].events & EPOLLOUT) {
          alive = FlushOutbound(w, c);
          if (alive && c->paused_read && c->OutboundBytes() == 0) {
            // The queue drained: resume the reads backpressure paused.
            // Explicit, because edge-triggered EPOLLIN will not re-fire
            // for bytes that were already waiting while we were paused.
            alive = PumpConn(w, c, &payload);
          }
        }
        if (alive && (events[i].events &
                      (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR))) {
          alive = PumpConn(w, c, &payload);
        }
        if (!alive) CloseConn(w, fd);
      }
      // Adoption AFTER the event batch: a freshly accepted fd may reuse
      // the number of one closed above, and a stale event for the dead
      // connection must never be applied to its successor.
      if (adopt) AdoptConnections(w, &payload);
      w->wheel.Advance(SocketClock::now(),
                       [this, w](int fd) { OnTimer(w, fd); });
      if (draining_.load(std::memory_order_acquire)) DrainSweep(w, &payload);
    }
    // Hard stop: every connection dies with its worker. Count buffered
    // partials (clients cut off mid-send) on the way out.
    {
      std::lock_guard<std::mutex> lock(w->inbox_mutex);
      for (int fd : w->inbox) {
        ::close(fd);
        live_connections_.fetch_sub(1, std::memory_order_acq_rel);
      }
      w->inbox.clear();
    }
    for (const auto& [fd, c] : w->conns) {
      (void)fd;
      if (c->decoder.buffered() > 0) {
        aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
      }
      live_connections_.fetch_sub(1, std::memory_order_acq_rel);
    }
    w->conns.clear();
  }

  void AdoptConnections(Worker* w, std::vector<uint8_t>* payload) {
    uint64_t wakeups = 0;
    [[maybe_unused]] const ssize_t r =
        ::read(w->event_fd.get(), &wakeups, sizeof(wakeups));
    std::vector<int> fresh;
    {
      std::lock_guard<std::mutex> lock(w->inbox_mutex);
      fresh.swap(w->inbox);
    }
    for (int raw : fresh) {
      auto conn = std::make_unique<Conn>(raw);
      Conn* c = conn.get();
      c->idle_deadline = DeadlineAfterMs(config_.idle_timeout_ms);
      w->conns.emplace(raw, std::move(conn));
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
      ev.data.fd = raw;
      if (::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_ADD, raw, &ev) != 0) {
        CloseConn(w, raw);
        continue;
      }
      // Bytes may have landed before the fd joined the epoll set; that
      // edge is already gone, so pump once by hand.
      if (!PumpConn(w, c, payload)) CloseConn(w, raw);
    }
  }

  // Drives one connection's read -> decode -> dispatch -> flush cycle
  // until the socket runs dry (edge-triggered epoll requires reading to
  // EAGAIN). Returns false when the connection must close.
  bool PumpConn(Worker* w, Conn* c, std::vector<uint8_t>* payload) {
    uint8_t chunk[1 << 16];
    SocketDeadline budget = NoDeadline();
    bool stamped = false;
    while (!c->close_after_flush) {
      if (c->paused_read) {
        if (!FlushOutbound(w, c)) return false;
        if (c->OutboundBytes() > 0) break;  // EPOLLOUT resumes us later
        c->paused_read = false;
      }
      const ssize_t got =
          ::recv(c->fd.get(), chunk, sizeof(chunk), MSG_DONTWAIT);
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // dry
        if (c->decoder.buffered() > 0) {
          aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
      if (got == 0) {
        // Peer closed. A half-written frame left in the decoder (a
        // client killed mid-send, a torn TCP stream) is a clean
        // disconnect, never an error path: the bytes are simply
        // discarded with the connection. Counted so tests and operators
        // can observe aborted uploads.
        if (c->decoder.buffered() > 0) {
          aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
      if (!stamped) {
        // The request budget is stamped at BATCH ARRIVAL: every frame
        // decoded from this delivery shares the stamp, so pipelined
        // frames queued behind a slow one inherit the time they spent
        // waiting.
        budget = DeadlineAfterMs(config_.request_budget_ms);
        stamped = true;
      }
      c->idle_deadline = DeadlineAfterMs(config_.idle_timeout_ms);
      c->decoder.Feed(chunk, static_cast<size_t>(got));
      while (true) {
        try {
          if (!c->decoder.Next(payload)) break;
        } catch (const std::exception& e) {
          // Corrupt length prefix: answer once, then drop the stream
          // as soon as the error frame flushes.
          Response bad;
          bad.status = Status::kBadRequest;
          bad.error = e.what();
          AppendResponseFrame(Opcode::kPing, bad, &c->staging);
          c->close_after_flush = true;
          break;
        }
        HandleFrame(*payload, budget, &c->staging);
        frames_.fetch_add(1, std::memory_order_relaxed);
      }
      if (c->OutboundBytes() > kMaxOutboundBytes) {
        c->paused_read = true;  // backpressure; flushed at loop top
      }
    }
    if (!FlushOutbound(w, c)) return false;
    if (draining_.load(std::memory_order_acquire) && !c->close_after_flush &&
        c->OutboundBytes() == 0) {
      // Drain: every complete frame this connection sent has been
      // answered and flushed; anything still buffered is a partial the
      // peer may never finish. Close now.
      if (c->decoder.buffered() > 0) {
        aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    ScheduleTimers(w, c);
    return true;
  }

  // Flushes the double buffer with gather-writes until done or EAGAIN
  // (which arms EPOLLOUT and the write-stall deadline). Returns false
  // when the connection must close: peer gone, or a desynced stream
  // whose final error frame has now fully flushed.
  bool FlushOutbound(Worker* w, Conn* c) {
    while (c->OutboundBytes() > 0) {
      iovec iov[2];
      size_t iovcnt = 0;
      if (c->pending.size() > c->pending_off) {
        iov[iovcnt].iov_base = c->pending.data() + c->pending_off;
        iov[iovcnt].iov_len = c->pending.size() - c->pending_off;
        ++iovcnt;
      }
      if (!c->staging.empty()) {
        iov[iovcnt].iov_base = c->staging.data();
        iov[iovcnt].iov_len = c->staging.size();
        ++iovcnt;
      }
      const ssize_t sent = WritevNonBlocking(c->fd.get(), iov, iovcnt);
      if (sent < 0) return false;
      if (sent == 0) {
        // Socket buffer full: wait for EPOLLOUT, bounded by the
        // write-stall deadline.
        if (!c->want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET;
          ev.data.fd = c->fd.get();
          if (::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_MOD, c->fd.get(),
                          &ev) != 0) {
            return false;
          }
          c->want_write = true;
        }
        if (c->write_deadline == NoDeadline()) {
          c->write_deadline = DeadlineAfterMs(config_.send_timeout_ms);
        }
        ScheduleTimers(w, c);
        return true;
      }
      ConsumeOutbound(c, static_cast<size_t>(sent));
      if (c->write_deadline != NoDeadline()) {
        // Progress re-arms the stall clock: only a peer taking NOTHING
        // for send_timeout_ms is reaped.
        c->write_deadline = DeadlineAfterMs(config_.send_timeout_ms);
      }
    }
    c->write_deadline = NoDeadline();
    if (c->want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
      ev.data.fd = c->fd.get();
      ::epoll_ctl(w->epoll_fd.get(), EPOLL_CTL_MOD, c->fd.get(), &ev);
      c->want_write = false;
    }
    return !c->close_after_flush;
  }

  // Accounts `n` sent bytes against pending-then-staging; when the
  // pending run drains, the buffers swap so the drained allocation is
  // recycled as the next staging buffer.
  static void ConsumeOutbound(Conn* c, size_t n) {
    const size_t pending_left = c->pending.size() - c->pending_off;
    if (n < pending_left) {
      c->pending_off += n;
      return;
    }
    n -= pending_left;
    c->pending.clear();
    std::swap(c->pending, c->staging);
    c->pending_off = n;
    if (c->pending_off >= c->pending.size()) {
      c->pending.clear();
      c->pending_off = 0;
    }
  }

  // Ensures a wheel entry fires at-or-before the connection's earliest
  // real deadline. Lazy cancellation makes re-arming free: moving a
  // deadline LATER leaves the old entry to fire, re-check, and
  // reschedule itself.
  void ScheduleTimers(Worker* w, Conn* c) {
    const SocketDeadline earliest =
        std::min(c->idle_deadline, c->write_deadline);
    if (earliest == NoDeadline()) return;
    if (c->wheel_deadline <= earliest) return;
    c->wheel_deadline = w->wheel.Schedule(c->fd.get(), earliest);
  }

  void OnTimer(Worker* w, int fd) {
    auto it = w->conns.find(fd);
    if (it == w->conns.end()) return;  // lazily cancelled
    Conn* c = it->second.get();
    c->wheel_deadline = NoDeadline();
    const SocketDeadline now = SocketClock::now();
    if (now >= c->idle_deadline) {
      // Slow loris / dead peer: reap. A buffered partial frame is the
      // signature of a client that sent a length prefix and stalled.
      idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      if (c->decoder.buffered() > 0) {
        aborted_partial_frames_.fetch_add(1, std::memory_order_relaxed);
      }
      CloseConn(w, fd);
      return;
    }
    if (now >= c->write_deadline) {
      // Write stalled past send_timeout_ms: the peer stopped taking
      // response bytes entirely (blackholed downstream).
      CloseConn(w, fd);
      return;
    }
    ScheduleTimers(w, c);
  }

  // Drain phase: pump every connection (answering whatever complete
  // frames it holds) and close the ones with nothing left in flight.
  void DrainSweep(Worker* w, std::vector<uint8_t>* payload) {
    std::vector<int> victims;
    for (auto& [fd, c] : w->conns) {
      if (!PumpConn(w, c.get(), payload)) victims.push_back(fd);
    }
    for (int fd : victims) CloseConn(w, fd);
  }

  void CloseConn(Worker* w, int fd) {
    auto it = w->conns.find(fd);
    if (it == w->conns.end()) return;
    // Closing the fd (ScopedFd in the erased Conn) drops its epoll
    // registration; wheel entries cancel lazily in OnTimer.
    w->conns.erase(it);
    live_connections_.fetch_sub(1, std::memory_order_acq_rel);
  }

  // Ops whose response carries no state the client reconciles against:
  // safe to convert to kDeadlineExceeded after the work ran. kAppend and
  // kFlush return the accepted count and kCreate/kDrop change registry
  // state -- once applied they MUST ack, or the client's accounting and
  // retry logic desync from the server's.
  static bool IsReadOnly(Opcode op) {
    switch (op) {
      case Opcode::kPing:
      case Opcode::kRank:
      case Opcode::kQuantiles:
      case Opcode::kCdf:
      case Opcode::kSnapshot:
      case Opcode::kList:
      case Opcode::kStats:
        return true;
      default:
        return false;
    }
  }

  // Parses one request payload and appends the framed response to
  // `*out` (the connection's staging buffer). All throwing paths are
  // caught here; see the class comment for the status mapping.
  void HandleFrame(const std::vector<uint8_t>& payload, SocketDeadline budget,
                   std::vector<uint8_t>* out) {
    Opcode op = Opcode::kPing;
    Response response;
    try {
      const Request request = ParseRequest(payload);
      op = request.op;
      if (SocketClock::now() >= budget) {
        // Budget spent before dispatch (a burst pipelined behind a slow
        // frame, or a server pushed past its request budget): shed the
        // frame with zero work done. Uniform for every opcode -- nothing
        // was applied, so the client may retry anything.
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        response.status = Status::kDeadlineExceeded;
        response.error = "request budget exhausted before dispatch";
        AppendResponseFrame(op, response, out);
        return;
      }
      // An operation can race an idle eviction: the engine handle goes
      // retired between Require and use. Re-dispatching re-resolves the
      // metric, which rehydrates it -- invisible to the client beyond
      // latency. Bounded so a pathological evict loop cannot spin here.
      for (int attempt = 0;; ++attempt) {
        try {
          response = Dispatch(request);
          break;
        } catch (const MetricRetired&) {
          if (attempt >= 2) throw;
        }
      }
      if (IsReadOnly(op) && SocketClock::now() >= budget) {
        // The answer took longer than the budget; for a read the client
        // has surely timed out its side, so a typed timeout beats a
        // stale payload. Mutations skip this: applied work always acks.
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        Response late;
        late.status = Status::kDeadlineExceeded;
        late.error = "request budget exhausted during dispatch";
        AppendResponseFrame(op, late, out);
        return;
      }
    } catch (const MetricNotFound& e) {
      response.status = Status::kNotFound;
      response.error = e.what();
    } catch (const MetricExists& e) {
      response.status = Status::kExists;
      response.error = e.what();
    } catch (const QuotaExceeded& e) {
      // Before the runtime_error ladder: a quota rejection is a
      // definitive, typed answer, not a malformed request.
      response.status = Status::kQuotaExceeded;
      response.error = e.what();
    } catch (const MetricRetired& e) {
      // Retries exhausted (an evictor is racing this metric hard):
      // server-side condition, safe for the client to retry.
      response.status = Status::kError;
      response.error = e.what();
    } catch (const persist::IoError& e) {
      // Durability failures (fsync error, injected fault, disk full) are
      // server-side trouble, not a malformed request: kError, and the
      // ordering matters -- IoError derives from runtime_error, which
      // maps to kBadRequest below.
      response.status = Status::kError;
      response.error = e.what();
    } catch (const std::invalid_argument& e) {
      response.status = Status::kBadRequest;
      response.error = e.what();
    } catch (const std::logic_error& e) {
      response.status = Status::kBadRequest;
      response.error = e.what();
    } catch (const std::runtime_error& e) {
      response.status = Status::kBadRequest;
      response.error = e.what();
    } catch (const std::exception& e) {
      response.status = Status::kError;
      response.error = e.what();
    }
    AppendResponseFrame(op, response, out);
  }

  Response Dispatch(const Request& request) {
    Response response;
    switch (request.op) {
      case Opcode::kPing:
        response.protocol_version = kProtocolVersion;
        break;
      case Opcode::kCreate:
        registry_->Create(request.metric, request.spec);
        break;
      case Opcode::kAppend: {
        SketchRegistry::EnginePtr engine =
            registry_->Require(request.metric);
        // The count as of this batch: reading AcceptedN() afterwards could
        // already include a concurrent writer's later batch.
        response.n =
            engine->Append(request.values.data(), request.values.size());
        // Checkpoint on the append path, after the ack state is set: the
        // engine decides (by WAL bytes written) whether a snapshot is
        // due, so recovery replay stays short without a background timer.
        engine->MaybeCheckpoint();
        break;
      }
      case Opcode::kFlush:
        // Every engine applies each batch in Append, so an acknowledged
        // append is already query-visible: FLUSH just reports the count.
        response.n = registry_->Require(request.metric)->AcceptedN();
        break;
      case Opcode::kRank:
        response.ranks = registry_->Require(request.metric)
                             ->GetRanks(request.values, request.criterion);
        break;
      case Opcode::kQuantiles:
        response.values =
            registry_->Require(request.metric)
                ->GetQuantiles(request.values, request.criterion);
        break;
      case Opcode::kCdf:
        response.values = registry_->Require(request.metric)
                              ->GetCDF(request.values, request.criterion);
        break;
      case Opcode::kSnapshot:
        response.blob = registry_->Require(request.metric)->Snapshot();
        break;
      case Opcode::kList: {
        if (request.list_paged) {
          // v2 paged form: prefix filter + offset/limit, served from the
          // lazily merged per-shard name runs.
          response.list_paged = true;
          response.names =
              registry_->ListPage(request.list_prefix, request.list_offset,
                                  request.list_limit, &response.total);
        } else {
          std::shared_ptr<const std::vector<std::string>> names =
              registry_->List();
          response.names = *names;
        }
        break;
      }
      case Opcode::kDrop:
        if (!registry_->Drop(request.metric)) {
          throw MetricNotFound(request.metric);
        }
        break;
      case Opcode::kStats:
        // Counter names are part of the observable surface (req-cli
        // prints them, the chaos suite asserts on them); additions are
        // fine, renames are a protocol change.
        response.stats = {
            {"connections_accepted", connections_.load()},
            {"live_connections", live_connections_.load()},
            {"frames_served", frames_.load()},
            {"aborted_partial_frames", aborted_partial_frames_.load()},
            {"shed_connections", shed_connections_.load()},
            {"deadline_exceeded", deadline_exceeded_.load()},
            {"idle_reaped", idle_reaped_.load()},
            {"accept_failures", accept_failures_.load()},
            {"workers", static_cast<uint64_t>(workers_.size())},
            {"metrics", registry_->size()},
            {"draining",
             draining_.load(std::memory_order_acquire) ? 1u : 0u},
        };
        break;
    }
    return response;
  }

  SketchRegistry* registry_;
  ReqdServerConfig config_;
  ScopedFd listen_fd_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> live_connections_{0};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> aborted_partial_frames_{0};
  std::atomic<uint64_t> shed_connections_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> accept_failures_{0};
};

}  // namespace service
}  // namespace req

#endif  // REQSKETCH_SERVICE_REQD_SERVER_H_
