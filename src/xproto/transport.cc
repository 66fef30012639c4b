#include "src/xproto/transport.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stddef.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/logging.h"

namespace xproto {

namespace {

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// A channel over one read fd and one write fd (equal for a socketpair end,
// distinct for a pipe-pair end).  Owns and closes both.
class FdChannel : public ByteChannel {
 public:
  FdChannel(int read_fd, int write_fd) : read_fd_(read_fd), write_fd_(write_fd) {}
  ~FdChannel() override { Close(); }

  IoStatus Write(std::span<const uint8_t> data, size_t* written) override {
    *written = 0;
    if (write_fd_ < 0) {
      return IoStatus::kClosed;
    }
    if (data.empty()) {
      return IoStatus::kOk;
    }
    for (;;) {
      // Writes to a closed peer must surface as EPIPE, not SIGPIPE; the
      // first MakeSocketPair/MakePipePair call ignores SIGPIPE process-wide.
      ssize_t n = ::write(write_fd_, data.data(), data.size());
      if (n >= 0) {
        *written = static_cast<size_t>(n);
        return IoStatus::kOk;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoStatus::kWouldBlock;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return IoStatus::kClosed;
      }
      return IoStatus::kError;
    }
  }

  IoStatus Read(uint8_t* buf, size_t cap, size_t* bytes_read) override {
    *bytes_read = 0;
    if (read_fd_ < 0) {
      return IoStatus::kClosed;
    }
    if (cap == 0) {
      return IoStatus::kOk;
    }
    for (;;) {
      ssize_t n = ::read(read_fd_, buf, cap);
      if (n > 0) {
        *bytes_read = static_cast<size_t>(n);
        return IoStatus::kOk;
      }
      if (n == 0) {
        return IoStatus::kClosed;  // EOF: peer closed.
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoStatus::kWouldBlock;
      }
      if (errno == ECONNRESET) {
        return IoStatus::kClosed;
      }
      return IoStatus::kError;
    }
  }

  void Close() override {
    if (read_fd_ >= 0 && read_fd_ != write_fd_) {
      ::close(read_fd_);
    }
    if (write_fd_ >= 0) {
      ::close(write_fd_);
    }
    read_fd_ = -1;
    write_fd_ = -1;
  }

  bool IsOpen() const override { return read_fd_ >= 0 || write_fd_ >= 0; }

  int ReadFd() const override { return read_fd_; }
  int WriteFd() const override { return write_fd_; }

 private:
  int read_fd_;
  int write_fd_;
};

void IgnoreSigpipeOnce() {
  // A peer that dies mid-write must surface as EPIPE on the channel, not as
  // a process-killing SIGPIPE.
  static const bool ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)ignored;
}

}  // namespace

ChannelPair MakeSocketPair(size_t buffer_bytes) {
  IgnoreSigpipeOnce();
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    XB_LOG(Warning) << "socketpair failed: " << std::strerror(errno);
    return {};
  }
  for (int fd : fds) {
    if (!SetNonBlocking(fd)) {
      XB_LOG(Warning) << "fcntl(O_NONBLOCK) failed: " << std::strerror(errno);
      ::close(fds[0]);
      ::close(fds[1]);
      return {};
    }
    if (buffer_bytes > 0) {
      int sz = static_cast<int>(buffer_bytes);
      // Best effort: the kernel clamps to its floor, which is fine — the
      // point is a small, bounded in-flight window.
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz));
    }
  }
  ChannelPair pair;
  pair.client = std::make_unique<FdChannel>(fds[0], fds[0]);
  pair.server = std::make_unique<FdChannel>(fds[1], fds[1]);
  return pair;
}

ChannelPair MakePipePair() {
  IgnoreSigpipeOnce();
  int a_to_b[2];  // a writes, b reads.
  int b_to_a[2];  // b writes, a reads.
  if (::pipe(a_to_b) != 0) {
    XB_LOG(Warning) << "pipe failed: " << std::strerror(errno);
    return {};
  }
  if (::pipe(b_to_a) != 0) {
    XB_LOG(Warning) << "pipe failed: " << std::strerror(errno);
    ::close(a_to_b[0]);
    ::close(a_to_b[1]);
    return {};
  }
  int fds[4] = {a_to_b[0], a_to_b[1], b_to_a[0], b_to_a[1]};
  for (int fd : fds) {
    if (!SetNonBlocking(fd)) {
      XB_LOG(Warning) << "fcntl(O_NONBLOCK) failed: " << std::strerror(errno);
      for (int f : fds) {
        ::close(f);
      }
      return {};
    }
  }
  ChannelPair pair;
  pair.client = std::make_unique<FdChannel>(/*read_fd=*/b_to_a[0], /*write_fd=*/a_to_b[1]);
  pair.server = std::make_unique<FdChannel>(/*read_fd=*/a_to_b[0], /*write_fd=*/b_to_a[1]);
  return pair;
}

// ---- Listening sockets ------------------------------------------------------

namespace {

// Fills sockaddr_un for `path`, honouring the '@' abstract-namespace
// convention.  Returns the addrlen to pass to bind/connect, or 0 when the
// path does not fit.
socklen_t FillSockaddr(const std::string& path, struct sockaddr_un* addr,
                       bool* is_abstract) {
  *addr = {};
  addr->sun_family = AF_UNIX;
  *is_abstract = !path.empty() && path[0] == '@';
  if (path.size() >= sizeof(addr->sun_path)) {
    XB_LOG(Warning) << "unix socket path too long: " << path;
    return 0;
  }
  if (*is_abstract) {
    // Abstract namespace: sun_path[0] == '\0', name follows, length counts
    // the name bytes (no trailing NUL).
    addr->sun_path[0] = '\0';
    std::memcpy(addr->sun_path + 1, path.data() + 1, path.size() - 1);
    return static_cast<socklen_t>(offsetof(struct sockaddr_un, sun_path) + path.size());
  }
  std::memcpy(addr->sun_path, path.data(), path.size());
  return static_cast<socklen_t>(offsetof(struct sockaddr_un, sun_path) + path.size() + 1);
}

}  // namespace

Listener::Listener(const std::string& path, int backlog) : path_(path) {
  IgnoreSigpipeOnce();
  struct sockaddr_un addr;
  bool is_abstract = false;
  socklen_t addrlen = FillSockaddr(path, &addr, &is_abstract);
  if (addrlen == 0) {
    return;
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    XB_LOG(Warning) << "listener: socket failed: " << std::strerror(errno);
    return;
  }
  if (!is_abstract) {
    // A predecessor that crashed leaves its socket inode behind; bind would
    // fail with EADDRINUSE forever.  Unlinking is safe: we own this path.
    ::unlink(path.c_str());
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), addrlen) != 0) {
    XB_LOG(Warning) << "listener: bind(" << path << ") failed: " << std::strerror(errno);
    ::close(fd);
    return;
  }
  if (::listen(fd, backlog) != 0) {
    XB_LOG(Warning) << "listener: listen(" << path << ") failed: " << std::strerror(errno);
    ::close(fd);
    if (!is_abstract) {
      ::unlink(path.c_str());
    }
    return;
  }
  fd_ = fd;
  unlink_on_close_ = !is_abstract;
}

Listener::~Listener() { Close(); }

std::unique_ptr<ByteChannel> Listener::Accept() {
  if (fd_ < 0) {
    return nullptr;
  }
  int client;
  do {
    client = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  } while (client < 0 && errno == EINTR);
  if (client < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ECONNABORTED) {
      XB_LOG(Warning) << "listener: accept failed: " << std::strerror(errno);
    }
    return nullptr;
  }
  return std::make_unique<FdChannel>(client, client);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (unlink_on_close_) {
    ::unlink(path_.c_str());
    unlink_on_close_ = false;
  }
}

std::unique_ptr<ByteChannel> ConnectSocket(const std::string& path) {
  IgnoreSigpipeOnce();
  struct sockaddr_un addr;
  bool is_abstract = false;
  socklen_t addrlen = FillSockaddr(path, &addr, &is_abstract);
  if (addrlen == 0) {
    return nullptr;
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    XB_LOG(Warning) << "connect: socket failed: " << std::strerror(errno);
    return nullptr;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), addrlen);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    XB_LOG(Warning) << "connect(" << path << ") failed: " << std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  // Connect blocking (the accept queue hands out connections immediately),
  // then switch to non-blocking for the framed channel discipline.
  if (!SetNonBlocking(fd)) {
    XB_LOG(Warning) << "connect: fcntl(O_NONBLOCK) failed: " << std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<FdChannel>(fd, fd);
}

// ---- Frame reassembly -------------------------------------------------------

std::optional<size_t> FrameBytesAtHead(FrameStream stream, std::span<const uint8_t> head) {
  // A lying length field comes back as a header-sized pseudo-frame so the
  // decoder rejects it; waiting for bytes that can never validly arrive
  // would hang the stream.
  size_t frame = stream == FrameStream::kRequests ? RequestFrameBytes(head)
                                                  : ServerFrameBytes(head);
  if (frame == 0) {
    return std::nullopt;
  }
  return frame;
}

FrameReassembler::FrameReassembler(FrameStream stream, size_t buffer_cap)
    : stream_(stream), buffer_cap_(buffer_cap) {}

std::optional<size_t> FrameReassembler::HeadFrameBytes() const {
  std::span<const uint8_t> head(buffer_.data() + consumed_, buffer_.size() - consumed_);
  std::optional<size_t> frame = FrameBytesAtHead(stream_, head);
  if (!frame.has_value() || *frame > head.size()) {
    return std::nullopt;
  }
  return frame;
}

void FrameReassembler::Compact() {
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

bool FrameReassembler::Feed(std::span<const uint8_t> bytes) {
  if (overflowed_) {
    return false;
  }
  Compact();
  if (buffer_.size() + bytes.size() > buffer_cap_) {
    // Only an overflow if the bytes cannot drain: a buffer full of complete
    // frames is the caller's to take, a partial frame this big is hostile.
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    size_t scan = 0;
    while (scan < buffer_.size()) {
      std::optional<size_t> frame = FrameBytesAtHead(
          stream_, std::span<const uint8_t>(buffer_.data() + scan, buffer_.size() - scan));
      if (!frame.has_value() || scan + *frame > buffer_.size()) {
        break;
      }
      scan += *frame;
    }
    if (buffer_.size() - scan > buffer_cap_) {
      overflowed_ = true;
      return false;
    }
    return true;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  return true;
}

std::optional<std::vector<uint8_t>> FrameReassembler::NextFrame() {
  std::optional<size_t> frame = HeadFrameBytes();
  if (!frame.has_value()) {
    return std::nullopt;
  }
  std::vector<uint8_t> out(buffer_.begin() + static_cast<ptrdiff_t>(consumed_),
                           buffer_.begin() + static_cast<ptrdiff_t>(consumed_ + *frame));
  consumed_ += *frame;
  ++frames_assembled_;
  return out;
}

std::vector<uint8_t> FrameReassembler::TakeFrames() {
  size_t start = consumed_;
  while (HeadFrameBytes().has_value()) {
    consumed_ += *HeadFrameBytes();
    ++frames_assembled_;
  }
  std::vector<uint8_t> out(buffer_.begin() + static_cast<ptrdiff_t>(start),
                           buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
  Compact();
  return out;
}

// ---- Client endpoint --------------------------------------------------------

WireClientEndpoint::WireClientEndpoint(std::unique_ptr<ByteChannel> channel)
    : channel_(std::move(channel)) {}

bool WireClientEndpoint::QueueRequest(const Request& request) {
  std::vector<uint8_t> bytes = EncodeRequestBytes(request);
  QueueBytes(bytes);
  return !bytes.empty();
}

void WireClientEndpoint::QueueBytes(std::span<const uint8_t> bytes) {
  outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
}

IoStatus WireClientEndpoint::Flush() {
  if (!channel_) {
    return IoStatus::kClosed;
  }
  while (outbox_sent_ < outbox_.size()) {
    size_t written = 0;
    IoStatus status = channel_->Write(
        std::span<const uint8_t>(outbox_.data() + outbox_sent_, outbox_.size() - outbox_sent_),
        &written);
    outbox_sent_ += written;
    if (status != IoStatus::kOk || written == 0) {
      return status;
    }
  }
  outbox_.clear();
  outbox_sent_ = 0;
  return IoStatus::kOk;
}

IoStatus WireClientEndpoint::Poll() {
  if (!channel_) {
    return IoStatus::kClosed;
  }
  uint8_t buf[4096];
  IoStatus last = IoStatus::kWouldBlock;
  for (;;) {
    size_t n = 0;
    IoStatus status = channel_->Read(buf, sizeof(buf), &n);
    if (n > 0) {
      inbound_.Feed(std::span<const uint8_t>(buf, n));
      last = IoStatus::kOk;
    }
    if (status != IoStatus::kOk || n == 0) {
      if (status == IoStatus::kClosed && channel_ != nullptr) {
        // EOF is terminal: latch it so open() reports the truth instead of
        // letting callers retry a dead socket forever.  Frames already
        // reassembled stay extractable via NextFrame.
        channel_->Close();
      }
      return status == IoStatus::kOk ? last : status;
    }
  }
}

std::optional<std::vector<uint8_t>> WireClientEndpoint::NextFrame() {
  return inbound_.NextFrame();
}

bool WireClientEndpoint::NextReply(Reply* out, ParseError* error, uint16_t* sequence) {
  Poll();
  while (std::optional<std::vector<uint8_t>> frame = inbound_.NextFrame()) {
    if (!frame->empty() && (*frame)[0] == 1) {
      return DecodeReply(*frame, out, error, sequence) > 0;
    }
  }
  if (error != nullptr) {
    *error = ParseError{ParseErrorCode::kTruncated, 0, 0, "no reply frame available"};
  }
  return false;
}

void WireClientEndpoint::Close() {
  if (channel_) {
    channel_->Close();
  }
}

void WireClientEndpoint::CloseMidFrame() {
  if (channel_ && outbox_sent_ < outbox_.size()) {
    // Send all but the second half of the final frame, so the server's
    // reassembler is left holding a partial request when the EOF lands.
    size_t keep = (outbox_.size() - outbox_sent_) / 2;
    size_t stop = outbox_.size() - std::max<size_t>(keep, 1);
    while (outbox_sent_ < stop) {
      size_t written = 0;
      IoStatus status = channel_->Write(
          std::span<const uint8_t>(outbox_.data() + outbox_sent_, stop - outbox_sent_),
          &written);
      outbox_sent_ += written;
      if (status != IoStatus::kOk || written == 0) {
        break;
      }
    }
  }
  Close();
}

}  // namespace xproto
