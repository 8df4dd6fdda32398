// The reqd daemon as a child process, and raw loopback connections to it.
//
// reqd is spawned with posix_spawn (no copy of the generator's large
// input arrays) and announces readiness on stdout ("reqd listening on
// ADDR:PORT ..."), which is where the port is read from. Connections
// send pre-encoded frames: a small head (length prefix, opcode, metric
// name, item count) and the raw item bytes, gathered in one sendmsg.
#ifndef PERFBENCH_REQD_CHILD_H_
#define PERFBENCH_REQD_CHILD_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/wire_protocol.h"

extern char** environ;

namespace perfbench {

class ReqdChild {
 public:
  ReqdChild() = default;
  ReqdChild(const ReqdChild&) = delete;
  ReqdChild& operator=(const ReqdChild&) = delete;
  ~ReqdChild() { Kill(); }

  // Spawns `binary args...` and blocks until it prints its listening
  // line (or exits, or `timeout_ms` passes -- both throw).
  void Start(const std::string& binary, const std::vector<std::string>& args,
             int timeout_ms = 60000) {
    int out[2];
    if (pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    std::vector<std::string> argv_store{binary};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    if (rc != 0) {
      close(out[0]);
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + binary + ": " +
                               std::strerror(rc));
    }
    stdout_fd_ = out[0];
    const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
    std::string text;
    while (true) {
      const size_t at = text.find("reqd listening on ");
      const size_t eol = at == std::string::npos ? at : text.find('\n', at);
      if (eol != std::string::npos) {
        const std::string line = text.substr(at, eol - at);
        const size_t space = line.find(' ', 18);
        const size_t colon = line.rfind(':', space);
        port_ = static_cast<uint16_t>(std::stoul(line.substr(colon + 1)));
        return;
      }
      pollfd pfd{stdout_fd_, POLLIN, 0};
      const int left_ms = static_cast<int>((deadline - NowNs()) / 1000000);
      if (left_ms <= 0) throw std::runtime_error("reqd did not start in time");
      if (poll(&pfd, 1, left_ms) <= 0) continue;
      char buf[4096];
      const ssize_t got = read(stdout_fd_, buf, sizeof(buf));
      if (got <= 0) throw std::runtime_error("reqd exited during start-up");
      text.append(buf, static_cast<size_t>(got));
    }
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

// One request as it goes on the wire: `head` (length prefix through the
// item count, or a whole small frame) followed by `count` raw doubles.
struct WireFrame {
  const uint8_t* head = nullptr;
  uint32_t head_len = 0;
  const double* values = nullptr;
  uint32_t count = 0;

  size_t size() const { return head_len + sizeof(double) * count; }
};

// A blocking loopback connection speaking raw frames.
class RawConn {
 public:
  RawConn() = default;
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;
  RawConn(RawConn&& other) noexcept
      : fd_(other.fd_), decoder_(std::move(other.decoder_)) {
    other.fd_ = -1;
  }
  ~RawConn() {
    if (fd_ >= 0) close(fd_);
  }

  void Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
    }
  }

  int fd() const { return fd_; }

  void SetNonBlocking() {
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }

  // Blocking gather-send of one frame.
  void Send(const WireFrame& frame) {
    iovec iov[2];
    iov[0].iov_base = const_cast<uint8_t*>(frame.head);
    iov[0].iov_len = frame.head_len;
    iov[1].iov_base = const_cast<double*>(frame.values);
    iov[1].iov_len = sizeof(double) * frame.count;
    int iovcnt = frame.count > 0 ? 2 : 1;
    iovec* cur = iov;
    while (iovcnt > 0) {
      msghdr msg{};
      msg.msg_iov = cur;
      msg.msg_iovlen = static_cast<size_t>(iovcnt);
      const ssize_t sent = sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      size_t left = static_cast<size_t>(sent);
      while (iovcnt > 0 && left >= cur->iov_len) {
        left -= cur->iov_len;
        ++cur;
        --iovcnt;
      }
      if (iovcnt > 0) {
        cur->iov_base = static_cast<uint8_t*>(cur->iov_base) + left;
        cur->iov_len -= left;
      }
    }
  }

  void SendBytes(const std::vector<uint8_t>& bytes) {
    WireFrame f;
    f.head = bytes.data();
    f.head_len = static_cast<uint32_t>(bytes.size());
    Send(f);
  }

  // Blocks until one complete response payload is available.
  void Receive(std::vector<uint8_t>* payload) {
    while (!decoder_.Next(payload)) {
      if (!ReadSome(/*blocking=*/true)) {
        throw std::runtime_error("connection closed by reqd");
      }
    }
  }

  // Pops a buffered payload without reading.
  bool Next(std::vector<uint8_t>* payload) { return decoder_.Next(payload); }

  // Reads what the socket holds into the decoder. False on EOF/error;
  // true otherwise (including "nothing to read" on a non-blocking fd).
  bool ReadSome(bool blocking) {
    uint8_t buf[65536];
    while (true) {
      const ssize_t got = recv(fd_, buf, sizeof(buf), 0);
      if (got > 0) {
        decoder_.Feed(buf, static_cast<size_t>(got));
        return true;
      }
      if (got == 0) return false;
      if (errno == EINTR) continue;
      if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
  }

 private:
  int fd_ = -1;
  req::service::FrameDecoder decoder_;
};

// Encodes `request` into one complete frame.
inline std::vector<uint8_t> EncodeFrame(const req::service::Request& request) {
  std::vector<uint8_t> frame;
  req::service::AppendFrame(&frame, req::service::EncodeRequest(request));
  return frame;
}

}  // namespace perfbench

#endif  // PERFBENCH_REQD_CHILD_H_
