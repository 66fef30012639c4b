// Framed byte transport for the duplex wire protocol (docs/PROTOCOL.md,
// "Connection lifecycle").
//
// Three layers, all protocol-agnostic about *content* and strict about
// *framing*:
//
//   * ByteChannel — one end of a non-blocking byte pipe.  The production
//     implementation wraps an AF_UNIX SOCK_STREAM socketpair(2) fd (a
//     pipe-pair fallback glues two pipe(2)s into one duplex end), so bytes
//     really cross a kernel boundary and arrive in arbitrary slices.
//
//   * FrameReassembler — turns an arbitrary-sliced byte stream back into
//     wire frames.  It understands both stream directions: client→server
//     carries request frames ([opcode][detail][len u16 in 4-byte units]),
//     server→client carries 32-byte errors (first byte 0), replies (first
//     byte 1, 32-byte minimum with a u32 extra-length) and 32-byte events
//     (first byte >= 2).  Hostile length fields never make it buffer more
//     than its cap: an oversized or undersized frame is surrendered as-is
//     for the decoder to reject, and a peer that streams an unbounded
//     partial frame trips overflowed().
//
//   * WireClientEndpoint — the minimal client end of a framed connection:
//     queue request bytes, flush them through the channel (handling short
//     writes), and split the inbound server stream into frames.
//
// The server-side peer of all this is xserver::Connection, which adds
// lifecycle states, backpressure accounting and fault injection.
#ifndef SRC_XPROTO_TRANSPORT_H_
#define SRC_XPROTO_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/xproto/wire.h"

namespace xproto {

// ---- Byte channels ----------------------------------------------------------

enum class IoStatus : uint8_t {
  kOk,          // Some bytes moved.
  kWouldBlock,  // No bytes available / peer's buffer full; try again later.
  kClosed,      // Peer closed its end (EOF on read, EPIPE on write).
  kError,       // Unrecoverable transport error.
};

// One end of a non-blocking byte pipe.
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;

  // Writes up to data.size() bytes; `*written` is how many were accepted.
  // kOk with *written < data.size() is a short write, not an error.
  virtual IoStatus Write(std::span<const uint8_t> data, size_t* written) = 0;
  // Reads up to `cap` bytes into `buf`; `*bytes_read` is how many arrived.
  virtual IoStatus Read(uint8_t* buf, size_t cap, size_t* bytes_read) = 0;
  virtual void Close() = 0;
  virtual bool IsOpen() const = 0;

  // The underlying kernel fds, for readiness polling (epoll registration,
  // poll(2) waits) and targeted shutdown(2) in tests.  The fd stays owned
  // by the channel — callers must not close it.  -1 when the channel has no
  // kernel fd (closed, or a test double).
  virtual int ReadFd() const { return -1; }
  virtual int WriteFd() const { return -1; }
};

// A connected pair of channel ends.  Both null if creation failed (logged).
struct ChannelPair {
  std::unique_ptr<ByteChannel> client;
  std::unique_ptr<ByteChannel> server;
};

// AF_UNIX SOCK_STREAM socketpair(2), both ends non-blocking.  A non-zero
// `buffer_bytes` shrinks SO_SNDBUF/SO_RCVBUF (tests use a tiny buffer to
// exercise backpressure deterministically).
ChannelPair MakeSocketPair(size_t buffer_bytes = 0);

// Two pipe(2)s glued into one duplex channel per end — the fallback when
// socketpair is unavailable, and a second kernel path for the fuzzers.
ChannelPair MakePipePair();

// ---- Listening sockets ------------------------------------------------------

// A bound, listening AF_UNIX SOCK_STREAM socket that genuinely separate
// processes connect to (docs/PROTOCOL.md "Out-of-process operation").
// Paths beginning with '@' name the Linux abstract namespace (no filesystem
// entry, auto-reclaimed on process death); filesystem paths have any stale
// socket left by a crashed predecessor unlinked before bind, and are
// unlinked again on destruction.
class Listener {
 public:
  explicit Listener(const std::string& path, int backlog = 16);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  bool ok() const { return fd_ >= 0; }
  // The listening fd, for epoll registration.  Owned by the Listener.
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

  // Accepts one pending connection as a non-blocking ByteChannel, or
  // nullptr when none is pending (EAGAIN) or the accept failed (logged).
  // Call in a loop on listener readability until it returns nullptr.
  std::unique_ptr<ByteChannel> Accept();

  void Close();

 private:
  int fd_ = -1;
  std::string path_;
  bool unlink_on_close_ = false;
};

// Connects to a Listener's socket (same '@' abstract-namespace convention)
// and returns the non-blocking client channel, or nullptr on failure.
std::unique_ptr<ByteChannel> ConnectSocket(const std::string& path);

// ---- Frame reassembly -------------------------------------------------------

enum class FrameStream : uint8_t {
  kRequests,        // client→server: request frames.
  kServerToClient,  // server→client: errors / replies / events.
};

// Size in bytes of the frame whose header starts `head`, or nullopt if not
// enough bytes have arrived to know: the stream's rule from wire.h
// (RequestFrameBytes / ServerFrameBytes).  A length field naming an oversized
// or undersized frame yields the *header* size so the decoder sees (and
// rejects) the lie instead of the reassembler waiting forever.
std::optional<size_t> FrameBytesAtHead(FrameStream stream, std::span<const uint8_t> head);

class FrameReassembler {
 public:
  explicit FrameReassembler(FrameStream stream, size_t buffer_cap = kMaxRequestBytes * 4);

  // Appends incoming stream bytes.  Returns false — and latches
  // overflowed() — when buffering them would exceed the cap with no
  // complete frame to show for it (a peer streaming an unbounded frame).
  bool Feed(std::span<const uint8_t> bytes);

  // Extracts the next complete frame, or nullopt if none is buffered.
  std::optional<std::vector<uint8_t>> NextFrame();

  // Drains every complete frame into one contiguous buffer (what a server
  // pump hands to DispatchBytes); a trailing partial frame stays buffered.
  std::vector<uint8_t> TakeFrames();

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }
  bool overflowed() const { return overflowed_; }
  uint64_t frames_assembled() const { return frames_assembled_; }

 private:
  // Size of the frame at the head of the buffer, or nullopt.
  std::optional<size_t> HeadFrameBytes() const;
  void Compact();

  FrameStream stream_;
  size_t buffer_cap_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // Prefix of buffer_ already handed out.
  bool overflowed_ = false;
  uint64_t frames_assembled_ = 0;
};

// ---- Client endpoint --------------------------------------------------------

// The client end of a framed connection.  Single-threaded, non-blocking:
// callers interleave Flush()/Poll() with the server's pump.
class WireClientEndpoint {
 public:
  explicit WireClientEndpoint(std::unique_ptr<ByteChannel> channel);

  // Queues the request's frame; false (nothing queued) when the encoder
  // refuses it (wire.h EncodeRequest).
  bool QueueRequest(const Request& request);
  void QueueBytes(std::span<const uint8_t> bytes);
  // Writes as much of the queue as the channel accepts.
  IoStatus Flush();
  // Reads whatever the channel has into the reassembler.
  IoStatus Poll();
  // Next complete server→client frame (error, reply or event bytes).
  std::optional<std::vector<uint8_t>> NextFrame();
  // Polls, then scans frames for the next *reply*, decoding it into `*out`
  // (other frame types are discarded here; lifecycle tests that care about
  // events/errors use NextFrame directly).  Returns false when no reply
  // frame is currently available or the frame failed to decode.
  bool NextReply(Reply* out, ParseError* error, uint16_t* sequence = nullptr);

  bool open() const { return channel_ && channel_->IsOpen(); }
  void Close();
  // Writes only a prefix of the queued bytes (cutting the final frame in
  // half) and closes — a client dying mid-request, for the kill-tests.
  void CloseMidFrame();

  size_t queued_bytes() const { return outbox_.size() - outbox_sent_; }
  FrameReassembler& reassembler() { return inbound_; }
  // The channel's read fd, for poll(2)/epoll waits.  -1 when closed.
  int PollFd() const { return channel_ ? channel_->ReadFd() : -1; }
  ByteChannel* channel() { return channel_.get(); }

 private:
  std::unique_ptr<ByteChannel> channel_;
  std::vector<uint8_t> outbox_;
  size_t outbox_sent_ = 0;
  FrameReassembler inbound_{FrameStream::kServerToClient};
};

}  // namespace xproto

#endif  // SRC_XPROTO_TRANSPORT_H_
