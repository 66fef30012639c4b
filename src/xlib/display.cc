#include "src/xlib/display.h"

#include <poll.h>

#include <cstdlib>

#include "src/base/logging.h"
#include "src/base/poller.h"

namespace xlib {

using xproto::AtomId;
using xproto::WindowId;

namespace {

// Wall-clock bound on a remote query round trip.  A healthy server answers
// in microseconds; blowing this means the server died or wedged, and the
// caller gets nullopt (the same shape a server-raised error produces).
constexpr int64_t kRemoteRoundTripMs = 5000;

}  // namespace

Display::Display(xserver::Server* server, std::string client_machine)
    : server_(server), machine_(std::move(client_machine)) {
  client_ = server_->Connect(machine_);
  server_->SetErrorCallback(client_, [this](const xproto::XError& error) {
    last_error_ = error;
    if (error_handler_) {
      error_handler_(error);
    } else {
      XB_LOG(Warning) << "X error: " << xproto::ErrorText(error);
    }
  });
}

Display::Display(const std::string& socket_path, std::string client_machine)
    : server_(nullptr), client_(0), machine_(std::move(client_machine)) {
  // Remote displays have no direct-call path: everything is wire.
  wire_mode_ = true;
  std::unique_ptr<xproto::ByteChannel> channel = xproto::ConnectSocket(socket_path);
  if (channel == nullptr) {
    XB_LOG(Warning) << "display: cannot connect to " << socket_path;
    // Leave endpoint_ null-but-remote impossible: park a closed endpoint so
    // remote() stays true and every call fails soft instead of touching a
    // null server_.
    endpoint_ = std::make_unique<xproto::WireClientEndpoint>(nullptr);
    return;
  }
  endpoint_ = std::make_unique<xproto::WireClientEndpoint>(std::move(channel));
  // Connection setup: learn the screen table.  Failure (timeout, dead
  // socket) leaves screens_ empty and Connected() false.
  std::optional<xproto::Reply> reply = RemoteRoundTrip(xproto::QueryScreensRequest{});
  if (reply.has_value()) {
    if (const auto* r = std::get_if<xproto::ScreensReply>(&*reply)) {
      int number = 0;
      for (const auto& s : r->screens) {
        xserver::ScreenInfo info;
        info.number = number++;
        info.root = s.root;
        info.size = xbase::Size{s.width, s.height};
        info.monochrome = s.monochrome;
        screens_.push_back(info);
      }
    }
  }
  if (screens_.empty()) {
    XB_LOG(Warning) << "display: QueryScreens handshake failed on " << socket_path;
  }
}

std::unique_ptr<Display> Display::FromEnv(std::string client_machine) {
  const char* path = std::getenv("SWM_SOCKET");
  if (path == nullptr || *path == '\0') {
    return nullptr;
  }
  auto display = std::make_unique<Display>(std::string(path), std::move(client_machine));
  if (!display->Connected()) {
    return nullptr;
  }
  return display;
}

bool Display::HandleRemoteFrame(std::span<const uint8_t> frame, int want_sequence,
                                std::optional<xproto::Reply>* reply_out) {
  if (frame.empty()) {
    return false;
  }
  xproto::ParseError parse_error;
  if (frame[0] == 0) {  // Error frame.
    xproto::XError error;
    if (xproto::DecodeError(frame, &error, &parse_error) == 0) {
      ++wire_stats_.reply_parse_errors;
      return false;
    }
    ++remote_errors_;
    last_error_ = error;
    if (error_handler_) {
      error_handler_(error);
    } else {
      XB_LOG(Warning) << "X error: " << xproto::ErrorText(error);
    }
    return want_sequence >= 0 &&
           (error.sequence & 0xffff) == static_cast<uint64_t>(want_sequence);
  }
  if (frame[0] == 1) {  // Reply frame.
    xproto::Reply reply;
    uint16_t sequence = 0;
    if (xproto::DecodeReply(frame, &reply, &parse_error, &sequence) == 0) {
      ++wire_stats_.reply_parse_errors;
      XB_LOG(Warning) << "reply decode failed: " << parse_error.detail;
      return false;
    }
    if (want_sequence >= 0 && sequence == static_cast<uint16_t>(want_sequence)) {
      ++wire_stats_.wire_replies;
      *reply_out = std::move(reply);
      return true;
    }
    // A reply nobody is waiting for: every query consumes its reply before
    // returning, so this is a stale leftover.  Drop it.
    return false;
  }
  // Event frame.
  xproto::Event event;
  if (xproto::DecodeEvent(frame, &event, &parse_error) == 0) {
    ++wire_stats_.reply_parse_errors;
    return false;
  }
  remote_events_.push_back(std::move(event));
  return false;
}

void Display::DrainRemote() {
  if (endpoint_ == nullptr) {
    return;
  }
  endpoint_->Flush();
  endpoint_->Poll();
  std::optional<xproto::Reply> unused;
  while (std::optional<std::vector<uint8_t>> frame = endpoint_->NextFrame()) {
    HandleRemoteFrame(*frame, /*want_sequence=*/-1, &unused);
  }
}

bool Display::RemoteIssue(const xproto::Request& request) {
  if (endpoint_ == nullptr || !endpoint_->open()) {
    return false;
  }
  if (!endpoint_->QueueRequest(request)) {
    ++wire_stats_.refused_requests;
    return false;
  }
  ++wire_stats_.wire_requests;
  ++remote_sequence_;
  // Fire-and-forget, as in real Xlib: a failure surfaces later as an X
  // error frame.  The opportunistic drain keeps the inbound stream moving.
  endpoint_->Flush();
  DrainRemote();
  return endpoint_->open();
}

std::optional<xproto::Reply> Display::RemoteRoundTrip(const xproto::Request& request) {
  if (endpoint_ == nullptr || !endpoint_->open()) {
    return std::nullopt;
  }
  if (!endpoint_->QueueRequest(request)) {
    ++wire_stats_.refused_requests;
    return std::nullopt;
  }
  ++wire_stats_.wire_requests;
  uint64_t sequence = ++remote_sequence_;
  int want = static_cast<int>(sequence & 0xffff);
  int64_t deadline = xbase::EventLoop::NowMs() + kRemoteRoundTripMs;
  std::optional<xproto::Reply> reply;
  for (;;) {
    endpoint_->Flush();
    endpoint_->Poll();
    while (std::optional<std::vector<uint8_t>> frame = endpoint_->NextFrame()) {
      if (HandleRemoteFrame(*frame, want, &reply)) {
        return reply;  // Matching reply, or nullopt if the server errored.
      }
    }
    if (!endpoint_->open()) {
      return std::nullopt;
    }
    int64_t remaining = deadline - xbase::EventLoop::NowMs();
    if (remaining <= 0) {
      XB_LOG(Warning) << "display: remote round trip timed out (seq " << sequence << ")";
      return std::nullopt;
    }
    struct pollfd pfd = {};
    pfd.fd = endpoint_->PollFd();
    pfd.events = POLLIN;
    if (endpoint_->queued_bytes() > 0) {
      pfd.events |= POLLOUT;
    }
    ::poll(&pfd, 1, static_cast<int>(remaining > 50 ? 50 : remaining));
  }
}

WindowId Display::RemoteCreate(const xproto::CreateWindowRequest& request) {
  uint64_t create_sequence = remote_sequence_ + 1;
  if (!RemoteIssue(request)) {
    return xproto::kNone;
  }
  // The query round trip is the synchronization point: any error the create
  // raised is on the stream ahead of this reply.
  std::optional<xproto::Reply> reply = RemoteRoundTrip(xproto::QueryLastCreatedRequest{});
  if (last_error_.has_value() &&
      (last_error_->sequence & 0xffff) == (create_sequence & 0xffff)) {
    return xproto::kNone;
  }
  if (!reply.has_value()) {
    return xproto::kNone;
  }
  const auto* r = std::get_if<xproto::LastCreatedReply>(&*reply);
  return r != nullptr ? r->window : xproto::kNone;
}

std::optional<xserver::Server::DispatchResult> Display::Dispatch(
    const xproto::Request& request) const {
  std::vector<uint8_t> bytes = xproto::EncodeRequestBytes(request);
  if (bytes.empty()) {
    ++wire_stats_.refused_requests;
    return std::nullopt;
  }
  ++wire_stats_.wire_requests;
  return server_->DispatchBytes(client_, bytes);
}

bool Display::Issue(xproto::Request request) {
  if (remote()) {
    return RemoteIssue(request);
  }
  std::optional<xserver::Server::DispatchResult> result = Dispatch(request);
  return result.has_value() && result->requests_dispatched == 1 &&
         result->requests_failed == 0 && result->parse_errors == 0;
}

xproto::WindowId Display::IssueCreate(xproto::CreateWindowRequest request) {
  if (remote()) {
    return RemoteCreate(request);
  }
  std::optional<xserver::Server::DispatchResult> result = Dispatch(request);
  return result.has_value() ? result->last_created_window : xproto::kNone;
}

std::optional<xproto::Reply> Display::RoundTrip(xproto::Request request) const {
  if (remote()) {
    return const_cast<Display*>(this)->RemoteRoundTrip(request);
  }
  std::optional<xserver::Server::DispatchResult> result = Dispatch(request);
  if (!result.has_value() || result->reply_bytes.empty()) {
    return std::nullopt;  // The server raised an X error instead of replying.
  }
  xproto::Reply reply;
  xproto::ParseError error;
  if (xproto::DecodeReply(result->reply_bytes, &reply, &error) == 0) {
    ++wire_stats_.reply_parse_errors;
    XB_LOG(Warning) << "reply decode failed: " << error.detail;
    return std::nullopt;
  }
  ++wire_stats_.wire_replies;
  return reply;
}

void Display::WireFallback(const char* what) const {
  if (!wire_mode_) {
    return;
  }
  ++wire_stats_.wire_fallbacks;
  XB_LOG_EVERY_N(Warning, std::string("wire-fallback-") + what, 64)
      << "wire mode: " << what << " has no wire encoding; falling back to a direct call";
}

Display::XErrorHandler Display::SetErrorHandler(XErrorHandler handler) {
  XErrorHandler previous = std::move(error_handler_);
  error_handler_ = std::move(handler);
  return previous;
}

Display::~Display() {
  if (remote()) {
    // Closing the socket is our disconnect: the server's readiness loop sees
    // EOF, drains, and sweeps this client's windows.
    endpoint_->Close();
    return;
  }
  if (server_->HasClient(client_)) {
    server_->Disconnect(client_);
  }
}

WindowId Display::CreateWindow(WindowId parent, const xbase::Rect& geometry, int border_width,
                               bool override_redirect, xproto::WindowClass window_class) {
  if (wire_mode_) {
    return IssueCreate({.parent = parent,
                        .geometry = geometry,
                        .border_width = border_width,
                        .window_class = window_class,
                        .override_redirect = override_redirect});
  }
  return server_->CreateWindow(client_, parent, geometry, border_width, window_class,
                               override_redirect);
}

bool Display::DestroyWindow(WindowId window) {
  if (wire_mode_) {
    return Issue(xproto::DestroyWindowRequest{.window = window});
  }
  return server_->DestroyWindow(client_, window);
}

bool Display::MapWindow(WindowId window) {
  if (wire_mode_) {
    return Issue(xproto::MapWindowRequest{.window = window});
  }
  return server_->MapWindow(client_, window);
}

bool Display::MapRaised(WindowId window) {
  if (wire_mode_) {
    RaiseWindow(window);
    return MapWindow(window);
  }
  server_->RaiseWindow(client_, window);
  return server_->MapWindow(client_, window);
}

bool Display::UnmapWindow(WindowId window) {
  if (wire_mode_) {
    return Issue(xproto::UnmapWindowRequest{.window = window});
  }
  return server_->UnmapWindow(client_, window);
}

bool Display::ReparentWindow(WindowId window, WindowId parent, const xbase::Point& position) {
  if (wire_mode_) {
    return Issue(
        xproto::ReparentWindowRequest{.window = window, .parent = parent, .position = position});
  }
  return server_->ReparentWindow(client_, window, parent, position);
}

bool Display::ConfigureWindow(WindowId window, uint16_t value_mask,
                              const xserver::ConfigureValues& values) {
  if (wire_mode_) {
    return Issue(xproto::ConfigureWindowRequest{.window = window,
                                                .value_mask = value_mask,
                                                .geometry = values.geometry,
                                                .border_width = values.border_width,
                                                .sibling = values.sibling,
                                                .stack_mode = values.stack_mode});
  }
  return server_->ConfigureWindow(client_, window, value_mask, values);
}

bool Display::MoveWindow(WindowId window, const xbase::Point& position) {
  if (wire_mode_) {
    xserver::ConfigureValues values;
    values.geometry.x = position.x;
    values.geometry.y = position.y;
    return ConfigureWindow(window, xproto::kConfigX | xproto::kConfigY, values);
  }
  return server_->MoveWindow(client_, window, position);
}

bool Display::ResizeWindow(WindowId window, const xbase::Size& size) {
  if (wire_mode_) {
    xserver::ConfigureValues values;
    values.geometry.width = size.width;
    values.geometry.height = size.height;
    return ConfigureWindow(window, xproto::kConfigWidth | xproto::kConfigHeight, values);
  }
  return server_->ResizeWindow(client_, window, size);
}

bool Display::MoveResizeWindow(WindowId window, const xbase::Rect& geometry) {
  if (wire_mode_) {
    xserver::ConfigureValues values;
    values.geometry = geometry;
    return ConfigureWindow(window,
                           xproto::kConfigX | xproto::kConfigY | xproto::kConfigWidth |
                               xproto::kConfigHeight,
                           values);
  }
  return server_->MoveResizeWindow(client_, window, geometry);
}

bool Display::RaiseWindow(WindowId window) {
  if (wire_mode_) {
    xserver::ConfigureValues values;
    values.stack_mode = xproto::StackMode::kAbove;
    return ConfigureWindow(window, xproto::kConfigStackMode, values);
  }
  return server_->RaiseWindow(client_, window);
}

bool Display::LowerWindow(WindowId window) {
  if (wire_mode_) {
    xserver::ConfigureValues values;
    values.stack_mode = xproto::StackMode::kBelow;
    return ConfigureWindow(window, xproto::kConfigStackMode, values);
  }
  return server_->LowerWindow(client_, window);
}

bool Display::SelectInput(WindowId window, uint32_t event_mask) {
  if (wire_mode_) {
    return Issue(xproto::SelectInputRequest{.window = window, .event_mask = event_mask});
  }
  return server_->SelectInput(client_, window, event_mask);
}

bool Display::AddToSaveSet(WindowId window) {
  if (wire_mode_) {
    return Issue(xproto::ChangeSaveSetRequest{.window = window, .add = true});
  }
  return server_->ChangeSaveSet(client_, window, /*add=*/true);
}

bool Display::RemoveFromSaveSet(WindowId window) {
  if (wire_mode_) {
    return Issue(xproto::ChangeSaveSetRequest{.window = window, .add = false});
  }
  return server_->ChangeSaveSet(client_, window, /*add=*/false);
}

std::optional<xserver::WindowAttributes> Display::GetWindowAttributes(WindowId window) const {
  if (wire_mode_) {
    std::optional<xproto::Reply> reply =
        RoundTrip(xproto::GetWindowAttributesRequest{.window = window});
    if (!reply.has_value()) {
      return std::nullopt;
    }
    const auto* r = std::get_if<xproto::AttributesReply>(&*reply);
    if (r == nullptr) {
      return std::nullopt;
    }
    xserver::WindowAttributes attrs;
    attrs.window_class = r->window_class;
    attrs.map_state = r->map_state;
    attrs.override_redirect = r->override_redirect;
    attrs.all_event_masks = r->all_event_masks;
    attrs.border_width = r->border_width;
    return attrs;
  }
  return server_->GetWindowAttributes(window);
}

std::optional<xbase::Rect> Display::GetGeometry(WindowId window) const {
  if (wire_mode_) {
    std::optional<xproto::Reply> reply =
        RoundTrip(xproto::GetGeometryRequest{.window = window});
    if (!reply.has_value()) {
      return std::nullopt;
    }
    const auto* r = std::get_if<xproto::GeometryReply>(&*reply);
    return r != nullptr ? std::optional<xbase::Rect>(r->geometry) : std::nullopt;
  }
  return server_->GetGeometry(window);
}

std::optional<xserver::QueryTreeReply> Display::QueryTree(WindowId window) const {
  if (wire_mode_) {
    std::optional<xproto::Reply> reply = RoundTrip(xproto::QueryTreeRequest{.window = window});
    if (!reply.has_value()) {
      return std::nullopt;
    }
    auto* r = std::get_if<xproto::TreeReply>(&*reply);
    if (r == nullptr) {
      return std::nullopt;
    }
    xserver::QueryTreeReply tree;
    tree.root = r->root;
    tree.parent = r->parent;
    tree.children = std::move(r->children);
    return tree;
  }
  return server_->QueryTree(window);
}

std::optional<xbase::Point> Display::TranslateCoordinates(WindowId src, WindowId dst,
                                                          const xbase::Point& point) const {
  if (wire_mode_) {
    std::optional<xproto::Reply> reply = RoundTrip(
        xproto::TranslateCoordinatesRequest{.src = src, .dst = dst, .point = point});
    if (!reply.has_value()) {
      return std::nullopt;
    }
    const auto* r = std::get_if<xproto::CoordinatesReply>(&*reply);
    return r != nullptr ? std::optional<xbase::Point>(r->position) : std::nullopt;
  }
  return server_->TranslateCoordinates(src, dst, point);
}

AtomId Display::InternAtom(const std::string& name) {
  if (wire_mode_) {
    std::optional<xproto::Reply> reply = RoundTrip(xproto::InternAtomRequest{.name = name});
    if (reply.has_value()) {
      if (const auto* r = std::get_if<xproto::AtomReply>(&*reply)) {
        return r->atom;
      }
    }
    return xproto::kAtomNone;
  }
  return server_->InternAtom(name);
}

std::optional<std::string> Display::GetAtomName(AtomId atom) const {
  if (wire_mode_) {
    std::optional<xproto::Reply> reply = RoundTrip(xproto::GetAtomNameRequest{.atom = atom});
    if (!reply.has_value()) {
      return std::nullopt;
    }
    auto* r = std::get_if<xproto::AtomNameReply>(&*reply);
    return r != nullptr ? std::optional<std::string>(std::move(r->name)) : std::nullopt;
  }
  return server_->GetAtomName(atom);
}

bool Display::ChangeProperty(WindowId window, AtomId property, AtomId type, int format,
                             xserver::PropMode mode, const std::vector<uint8_t>& data) {
  if (wire_mode_) {
    return Issue(xproto::ChangePropertyRequest{
        .window = window,
        .property = property,
        .type = type,
        .format = format,
        .mode = static_cast<uint8_t>(mode),
        .data = data});
  }
  return server_->ChangeProperty(client_, window, property, type, format, mode, data);
}

std::optional<xserver::PropertyRec> Display::GetProperty(WindowId window,
                                                         AtomId property) const {
  if (wire_mode_) {
    std::optional<xproto::Reply> reply =
        RoundTrip(xproto::GetPropertyRequest{.window = window, .property = property});
    if (!reply.has_value()) {
      return std::nullopt;
    }
    auto* r = std::get_if<xproto::PropertyReply>(&*reply);
    if (r == nullptr || !r->found) {
      return std::nullopt;
    }
    xserver::PropertyRec rec;
    rec.type = r->type;
    rec.format = r->format;
    rec.data = std::move(r->data);
    return rec;
  }
  return server_->GetProperty(window, property);
}

bool Display::DeleteProperty(WindowId window, AtomId property) {
  if (wire_mode_) {
    return Issue(xproto::DeletePropertyRequest{.window = window, .property = property});
  }
  return server_->DeleteProperty(client_, window, property);
}

bool Display::SetStringProperty(WindowId window, const std::string& name,
                                const std::string& value) {
  AtomId prop = InternAtom(name);
  AtomId type = InternAtom("STRING");
  std::vector<uint8_t> data(value.begin(), value.end());
  return ChangeProperty(window, prop, type, 8, xserver::PropMode::kReplace, data);
}

std::optional<std::string> Display::GetStringProperty(WindowId window,
                                                      const std::string& name) const {
  // Routed through this->InternAtom / this->GetProperty so wire mode covers
  // the typed helpers too.
  auto rec = GetProperty(window, const_cast<Display*>(this)->InternAtom(name));
  if (!rec.has_value()) {
    return std::nullopt;
  }
  return std::string(rec->data.begin(), rec->data.end());
}

bool Display::AppendStringProperty(WindowId window, const std::string& name,
                                   const std::string& value) {
  AtomId prop = InternAtom(name);
  AtomId type = InternAtom("STRING");
  std::vector<uint8_t> data(value.begin(), value.end());
  return ChangeProperty(window, prop, type, 8, xserver::PropMode::kAppend, data);
}

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t value) {
  out->push_back(static_cast<uint8_t>(value & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 8) & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 16) & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 24) & 0xff));
}

std::optional<std::vector<uint32_t>> GetU32s(const xserver::PropertyRec& rec) {
  if (rec.format != 32 || rec.data.size() % 4 != 0) {
    return std::nullopt;
  }
  std::vector<uint32_t> out;
  for (size_t i = 0; i < rec.data.size(); i += 4) {
    out.push_back(static_cast<uint32_t>(rec.data[i]) |
                  (static_cast<uint32_t>(rec.data[i + 1]) << 8) |
                  (static_cast<uint32_t>(rec.data[i + 2]) << 16) |
                  (static_cast<uint32_t>(rec.data[i + 3]) << 24));
  }
  return out;
}

}  // namespace

bool Display::SetCardinalProperty(WindowId window, const std::string& name,
                                  const std::vector<uint32_t>& values) {
  AtomId prop = InternAtom(name);
  AtomId type = InternAtom("CARDINAL");
  std::vector<uint8_t> data;
  for (uint32_t v : values) {
    PutU32(&data, v);
  }
  return ChangeProperty(window, prop, type, 32, xserver::PropMode::kReplace, data);
}

std::optional<std::vector<uint32_t>> Display::GetCardinalProperty(
    WindowId window, const std::string& name) const {
  auto rec = GetProperty(window, const_cast<Display*>(this)->InternAtom(name));
  if (!rec.has_value()) {
    return std::nullopt;
  }
  return GetU32s(*rec);
}

bool Display::SetWindowIdProperty(WindowId window, const std::string& name, WindowId value) {
  AtomId prop = InternAtom(name);
  AtomId type = InternAtom("WINDOW");
  std::vector<uint8_t> data;
  PutU32(&data, value);
  return ChangeProperty(window, prop, type, 32, xserver::PropMode::kReplace, data);
}

std::optional<WindowId> Display::GetWindowIdProperty(WindowId window,
                                                     const std::string& name) const {
  auto rec = GetProperty(window, const_cast<Display*>(this)->InternAtom(name));
  if (!rec.has_value()) {
    return std::nullopt;
  }
  auto values = GetU32s(*rec);
  if (!values.has_value() || values->empty()) {
    return std::nullopt;
  }
  return (*values)[0];
}

bool Display::SendEvent(WindowId destination, uint32_t event_mask, xproto::Event event) {
  if (wire_mode_) {
    return Issue(xproto::SendEventRequest{
        .destination = destination, .event_mask = event_mask, .event = std::move(event)});
  }
  return server_->SendEvent(client_, destination, event_mask, std::move(event));
}

bool Display::SetInputFocus(WindowId window) {
  if (wire_mode_) {
    return Issue(xproto::SetInputFocusRequest{.window = window});
  }
  return server_->SetInputFocus(client_, window);
}

std::optional<xproto::Event> Display::NextEvent() {
  if (remote()) {
    DrainRemote();
    if (remote_events_.empty()) {
      return std::nullopt;
    }
    xproto::Event event = std::move(remote_events_.front());
    remote_events_.pop_front();
    return event;
  }
  return server_->NextEvent(client_);
}

size_t Display::Pending() const {
  if (remote()) {
    const_cast<Display*>(this)->DrainRemote();
    return remote_events_.size();
  }
  return server_->PendingEvents(client_);
}

bool Display::GrabButton(WindowId window, int button, uint32_t modifiers,
                         uint32_t event_mask) {
  if (wire_mode_) {
    return Issue(xproto::GrabButtonRequest{.window = window,
                                           .button = button,
                                           .modifiers = modifiers,
                                           .event_mask = event_mask});
  }
  return server_->GrabButton(client_, window, button, modifiers, event_mask);
}

bool Display::UngrabButton(WindowId window, int button, uint32_t modifiers) {
  if (wire_mode_) {
    return Issue(xproto::UngrabButtonRequest{
        .window = window, .button = button, .modifiers = modifiers});
  }
  return server_->UngrabButton(client_, window, button, modifiers);
}

xproto::WindowId Display::GetInputFocus() const {
  WireFallback("GetInputFocus");
  return server_ != nullptr ? server_->GetInputFocus() : xproto::kNone;
}

xserver::PointerState Display::QueryPointer() const {
  WireFallback("QueryPointer");
  return server_ != nullptr ? server_->QueryPointer() : xserver::PointerState{};
}

bool Display::IsShaped(WindowId window) const {
  WireFallback("IsShaped");
  return server_ != nullptr && server_->IsShaped(window);
}

bool Display::ShapeSetMask(WindowId window, const xbase::Bitmap& mask) {
  WireFallback("ShapeSetMask");
  return server_ != nullptr && server_->ShapeSetMask(client_, window, mask);
}

bool Display::ShapeSetRegion(WindowId window, xbase::Region region) {
  if (wire_mode_) {
    return Issue(xproto::ShapeRegionRequest{.window = window, .rects = region.rects()});
  }
  return server_->ShapeSetRegion(client_, window, std::move(region));
}

bool Display::ShapeClear(WindowId window) {
  if (wire_mode_) {
    return Issue(xproto::ShapeClearRequest{.window = window});
  }
  return server_->ShapeClear(client_, window);
}

bool Display::ShapeSelect(WindowId window, bool enable) {
  if (wire_mode_) {
    return Issue(xproto::ShapeSelectRequest{.window = window, .enable = enable});
  }
  return server_->ShapeSelect(client_, window, enable);
}

bool Display::SetWindowBackground(WindowId window, char background) {
  if (wire_mode_) {
    return Issue(xproto::SetWindowBackgroundRequest{.window = window, .background = background});
  }
  return server_->SetWindowBackground(client_, window, background);
}

bool Display::SetCursor(WindowId window, const std::string& name) {
  if (wire_mode_) {
    return Issue(xproto::SetCursorRequest{.window = window, .name = name});
  }
  return server_->SetCursor(client_, window, name);
}

bool Display::ClearWindow(WindowId window) {
  if (wire_mode_) {
    return Issue(xproto::ClearWindowRequest{.window = window});
  }
  return server_->ClearWindow(client_, window);
}

bool Display::Draw(WindowId window, xserver::DrawOp op) {
  if (wire_mode_) {
    xproto::DrawRequest request;
    request.window = window;
    request.kind = static_cast<uint8_t>(op.kind);
    request.rect = op.rect;
    request.fill = op.fill;
    request.text = op.text;
    if (!op.bitmap.IsEmpty()) {
      request.bitmap_width = op.bitmap.width();
      request.bitmap_height = op.bitmap.height();
      request.bitmap_cells.reserve(static_cast<size_t>(request.bitmap_width) *
                                   request.bitmap_height);
      for (int y = 0; y < request.bitmap_height; ++y) {
        for (int x = 0; x < request.bitmap_width; ++x) {
          request.bitmap_cells.push_back(op.bitmap.Get(x, y) ? 1 : 0);
        }
      }
    }
    return Issue(std::move(request));
  }
  return server_->Draw(client_, window, std::move(op));
}

}  // namespace xlib
