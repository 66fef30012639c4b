// Client-side library over the server simulator — the Xlib substitute.
//
// A Display is one client connection: it owns a client id, forwards requests
// to the in-process server, and drains its own event queue.  The call
// surface intentionally mirrors Xlib (CreateSimpleWindow, SelectInput,
// InternAtom, ChangeProperty, NextEvent, ...) so the window-manager code
// above reads like real X client code.
#ifndef SRC_XLIB_DISPLAY_H_
#define SRC_XLIB_DISPLAY_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/xproto/error.h"
#include "src/xproto/events.h"
#include "src/xproto/sanitize.h"
#include "src/xproto/transport.h"
#include "src/xproto/types.h"
#include "src/xserver/server.h"

namespace xlib {

class Display {
 public:
  // Connects to the in-process server.  `client_machine` models the host
  // this client runs on (clients "are not constrained to be run on the same
  // system that is actually running the X server", paper §1).
  explicit Display(xserver::Server* server, std::string client_machine = "localhost");

  // Connects to an out-of-process server over its listening socket
  // (docs/PROTOCOL.md "Out-of-process operation"; '@'-prefixed paths name
  // the abstract namespace).  The constructor performs the QueryScreens
  // handshake; check Connected() before use.  Every request travels the
  // wire — there is no direct-call fast path and no Server pointer, so
  // server() must not be called on a remote display.
  explicit Display(const std::string& socket_path, std::string client_machine = "remote");

  // Remote display from $SWM_SOCKET (the conventional handoff from a server
  // that forked us).  nullptr when the variable is unset or the handshake
  // failed.
  static std::unique_ptr<Display> FromEnv(std::string client_machine = "remote");

  ~Display();

  Display(const Display&) = delete;
  Display& operator=(const Display&) = delete;

  xserver::Server& server() { return *server_; }
  const xserver::Server& server() const { return *server_; }
  xproto::ClientId client_id() const { return client_; }
  const std::string& client_machine() const { return machine_; }

  // True for displays constructed over a socket (no in-process Server).
  bool remote() const { return endpoint_ != nullptr; }
  // In-process displays are always connected; remote ones only after the
  // QueryScreens handshake succeeded and while the socket stays open.
  bool Connected() const {
    return remote() ? endpoint_->open() && !screens_.empty() : true;
  }
  // Remote socket fd for poll(2)/epoll waits; -1 in-process.
  int PollFd() const { return remote() ? endpoint_->PollFd() : -1; }

  // ---- Error handling ------------------------------------------------------
  // XSetErrorHandler-style: the handler runs synchronously when the server
  // raises an error against this connection.  Returns the previous handler;
  // pass nullptr to restore the default (which logs a warning).
  using XErrorHandler = std::function<void(const xproto::XError&)>;
  XErrorHandler SetErrorHandler(XErrorHandler handler);
  // Errors raised against this connection so far.
  uint64_t ErrorCount() const {
    return remote() ? remote_errors_ : server_->ErrorCount(client_);
  }
  // Per-connection request sequence number — requests issued so far.
  uint64_t RequestCount() const {
    return remote() ? remote_sequence_ : server_->SequenceNumber(client_);
  }
  // The most recent error, if any.
  const std::optional<xproto::XError>& LastError() const { return last_error_; }

  // ---- Wire mode (docs/PROTOCOL.md) ----------------------------------------
  // When enabled, every request this Display issues — void requests *and*
  // reply-bearing queries (GetGeometry, QueryTree, InternAtom, GetProperty,
  // ...) — is encoded to X11 wire bytes, routed through
  // Server::DispatchBytes, and for queries the answer is decoded back out
  // of the reply frame the dispatch emitted: the full serialize → parse →
  // dispatch → encode-reply → decode-reply round trip an out-of-process
  // client exercises.  The handful of calls with no wire encoding
  // (ShapeSetMask, pointer/focus introspection) fall back to direct calls
  // and are counted in wire_stats().wire_fallbacks.  Off by default:
  // direct calls are the fast path.
  void set_wire_mode(bool enable) { wire_mode_ = enable; }
  bool wire_mode() const { return wire_mode_; }

  struct WireStats {
    uint64_t wire_requests = 0;      // Requests encoded and byte-routed.
    uint64_t wire_replies = 0;       // Reply frames decoded back.
    uint64_t wire_fallbacks = 0;     // Wire-mode calls with no wire encoding.
    uint64_t reply_parse_errors = 0; // Reply frames that failed to decode.
    // Requests the encoder refused because the server's decoder would reject
    // them (a count over its cap, a frame over kMaxRequestBytes): the call
    // fails locally, sending no byte and using no sequence number.
    uint64_t refused_requests = 0;
  };
  const WireStats& wire_stats() const { return wire_stats_; }

  // ---- ICCCM sanitizer (docs/ROBUSTNESS.md) --------------------------------
  // What the sanitizing decoders in xlib/icccm repaired on this connection.
  // Hostile clients show up here, not as crashes.
  const xproto::SanitizerStats& sanitizer_stats() const { return sanitizer_stats_; }
  xproto::SanitizerStats* mutable_sanitizer_stats() { return &sanitizer_stats_; }

  // ---- Screens -----------------------------------------------------------
  // Remote displays answer from the screen table the QueryScreens handshake
  // cached — screen geometry is immutable for the life of a connection.
  int ScreenCount() const {
    return remote() ? static_cast<int>(screens_.size()) : server_->ScreenCount();
  }
  xproto::WindowId RootWindow(int screen = 0) const {
    if (remote()) {
      return ScreenKnown(screen) ? screens_[screen].root : xproto::kNone;
    }
    return server_->RootWindow(screen);
  }
  xbase::Size DisplaySize(int screen = 0) const {
    if (remote()) {
      return ScreenKnown(screen) ? screens_[screen].size : xbase::Size{};
    }
    return server_->screen(screen).size;
  }
  bool IsMonochrome(int screen = 0) const {
    if (remote()) {
      return ScreenKnown(screen) && screens_[screen].monochrome;
    }
    return server_->screen(screen).monochrome;
  }

  // ---- Windows -----------------------------------------------------------
  xproto::WindowId CreateWindow(xproto::WindowId parent, const xbase::Rect& geometry,
                                int border_width = 0, bool override_redirect = false,
                                xproto::WindowClass window_class =
                                    xproto::WindowClass::kInputOutput);
  bool DestroyWindow(xproto::WindowId window);
  bool MapWindow(xproto::WindowId window);
  bool MapRaised(xproto::WindowId window);
  bool UnmapWindow(xproto::WindowId window);
  bool ReparentWindow(xproto::WindowId window, xproto::WindowId parent,
                      const xbase::Point& position);
  bool ConfigureWindow(xproto::WindowId window, uint16_t value_mask,
                       const xserver::ConfigureValues& values);
  bool MoveWindow(xproto::WindowId window, const xbase::Point& position);
  bool ResizeWindow(xproto::WindowId window, const xbase::Size& size);
  bool MoveResizeWindow(xproto::WindowId window, const xbase::Rect& geometry);
  bool RaiseWindow(xproto::WindowId window);
  bool LowerWindow(xproto::WindowId window);
  bool SelectInput(xproto::WindowId window, uint32_t event_mask);
  bool AddToSaveSet(xproto::WindowId window);
  bool RemoveFromSaveSet(xproto::WindowId window);

  std::optional<xserver::WindowAttributes> GetWindowAttributes(xproto::WindowId window) const;
  std::optional<xbase::Rect> GetGeometry(xproto::WindowId window) const;
  std::optional<xserver::QueryTreeReply> QueryTree(xproto::WindowId window) const;
  std::optional<xbase::Point> TranslateCoordinates(xproto::WindowId src, xproto::WindowId dst,
                                                   const xbase::Point& point) const;

  // ---- Atoms & properties --------------------------------------------------
  xproto::AtomId InternAtom(const std::string& name);
  std::optional<std::string> GetAtomName(xproto::AtomId atom) const;

  bool ChangeProperty(xproto::WindowId window, xproto::AtomId property, xproto::AtomId type,
                      int format, xserver::PropMode mode, const std::vector<uint8_t>& data);
  std::optional<xserver::PropertyRec> GetProperty(xproto::WindowId window,
                                                  xproto::AtomId property) const;
  bool DeleteProperty(xproto::WindowId window, xproto::AtomId property);

  // Typed helpers (property names interned on the fly).
  bool SetStringProperty(xproto::WindowId window, const std::string& name,
                         const std::string& value);
  std::optional<std::string> GetStringProperty(xproto::WindowId window,
                                               const std::string& name) const;
  bool AppendStringProperty(xproto::WindowId window, const std::string& name,
                            const std::string& value);
  bool SetCardinalProperty(xproto::WindowId window, const std::string& name,
                           const std::vector<uint32_t>& values);
  std::optional<std::vector<uint32_t>> GetCardinalProperty(xproto::WindowId window,
                                                           const std::string& name) const;
  bool SetWindowIdProperty(xproto::WindowId window, const std::string& name,
                           xproto::WindowId value);
  std::optional<xproto::WindowId> GetWindowIdProperty(xproto::WindowId window,
                                                      const std::string& name) const;

  // ---- Events --------------------------------------------------------------
  bool SendEvent(xproto::WindowId destination, uint32_t event_mask, xproto::Event event);
  std::optional<xproto::Event> NextEvent();
  size_t Pending() const;
  // Drains the queue calling `handler` for each event; returns count handled.
  template <typename Handler>
  int DrainEvents(Handler&& handler) {
    int n = 0;
    while (std::optional<xproto::Event> event = NextEvent()) {
      handler(*event);
      ++n;
    }
    return n;
  }

  // ---- Focus ---------------------------------------------------------------
  bool SetInputFocus(xproto::WindowId window);
  xproto::WindowId GetInputFocus() const;

  // ---- Pointer -------------------------------------------------------------
  void WarpPointer(int screen, const xbase::Point& root_pos) {
    if (server_ == nullptr) {
      WireFallback("WarpPointer");
      return;
    }
    server_->WarpPointer(screen, root_pos);
  }
  xserver::PointerState QueryPointer() const;
  bool GrabButton(xproto::WindowId window, int button, uint32_t modifiers,
                  uint32_t event_mask);
  bool UngrabButton(xproto::WindowId window, int button, uint32_t modifiers);

  // ---- SHAPE ----------------------------------------------------------------
  bool ShapeSetMask(xproto::WindowId window, const xbase::Bitmap& mask);
  bool ShapeSetRegion(xproto::WindowId window, xbase::Region region);
  bool ShapeClear(xproto::WindowId window);
  bool ShapeSelect(xproto::WindowId window, bool enable);
  bool IsShaped(xproto::WindowId window) const;

  // ---- Drawing ---------------------------------------------------------------
  bool SetWindowBackground(xproto::WindowId window, char background);
  bool SetCursor(xproto::WindowId window, const std::string& name);
  bool ClearWindow(xproto::WindowId window);
  bool Draw(xproto::WindowId window, xserver::DrawOp op);

 private:
  // Encodes `request` and dispatches its frame in-process; nullopt (counted
  // in wire_stats().refused_requests) when the encoder refuses it.
  std::optional<xserver::Server::DispatchResult> Dispatch(const xproto::Request& request) const;
  // Wire-mode funnel: encodes `request` and dispatches the bytes.  Returns
  // true when the one frame parsed and executed cleanly.
  bool Issue(xproto::Request request);
  // Same funnel for CreateWindow (the id comes back via DispatchResult).
  xproto::WindowId IssueCreate(xproto::CreateWindowRequest request);
  // Query funnel: dispatches the encoded request and decodes the reply frame
  // it produced.  nullopt when the server raised an X error instead.
  std::optional<xproto::Reply> RoundTrip(xproto::Request request) const;
  // Accounting for wire-mode calls that have no wire encoding and must go
  // direct (logged every 64th per call site, counted always).
  void WireFallback(const char* what) const;

  bool ScreenKnown(int screen) const {
    return screen >= 0 && screen < static_cast<int>(screens_.size());
  }
  // ---- Remote transport (socket-connected displays) ------------------------
  // Fire-and-forget void request: queue, flush, opportunistically drain any
  // inbound frames already waiting.  Errors surface asynchronously, as in
  // real Xlib.
  bool RemoteIssue(const xproto::Request& request);
  // Blocking (bounded) query round trip over the socket.
  std::optional<xproto::Reply> RemoteRoundTrip(const xproto::Request& request);
  // CreateWindow + QueryLastCreated: the wire substitute for the
  // in-process DispatchResult::last_created_window.
  xproto::WindowId RemoteCreate(const xproto::CreateWindowRequest& request);
  // Dispatches one inbound frame: errors hit the error handler, events join
  // the local queue, a reply with sequence == want_sequence lands in
  // *reply_out.  Returns true when the frame settles the round trip
  // `want_sequence` identifies (matching reply or matching error); pass
  // want_sequence < 0 when not waiting.
  bool HandleRemoteFrame(std::span<const uint8_t> frame, int want_sequence,
                         std::optional<xproto::Reply>* reply_out);
  // Non-blocking drain of whatever the socket has (events, stray errors).
  void DrainRemote();

  xserver::Server* server_;
  xproto::ClientId client_;
  std::string machine_;
  bool wire_mode_ = false;
  mutable WireStats wire_stats_;
  XErrorHandler error_handler_;
  std::optional<xproto::XError> last_error_;
  xproto::SanitizerStats sanitizer_stats_;

  // Remote-mode state (null/empty for in-process displays).
  std::unique_ptr<xproto::WireClientEndpoint> endpoint_;
  std::vector<xserver::ScreenInfo> screens_;
  uint64_t remote_sequence_ = 0;  // Local mirror of the server's per-client count.
  uint64_t remote_errors_ = 0;
  std::deque<xproto::Event> remote_events_;
};

}  // namespace xlib

#endif  // SRC_XLIB_DISPLAY_H_
