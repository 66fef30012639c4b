#include "load.h"

#include <algorithm>
#include <utility>

#include "src/xlib/icccm.h"
#include "src/xproto/error.h"
#include "src/xproto/hints.h"

namespace e2e {

namespace {

// A WM reaction not observed within this long fails the operation.
constexpr int64_t kReactionDeadlineNs = 2'000'000'000;

// Per-client stream from the workload seed (SplitMix64 finaliser).
uint64_t ClientSeed(uint64_t seed, int session, int index) {
  uint64_t stream = static_cast<uint64_t>(session) * 64 + static_cast<uint64_t>(index) + 1;
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * stream;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double UsSince(int64_t t0_ns) { return static_cast<double>(NowNs() - t0_ns) / 1e3; }

bool TimedOut(int64_t t0_ns) { return NowNs() - t0_ns > kReactionDeadlineNs; }

template <typename T>
void Append(std::vector<T>* into, const std::vector<T>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

}  // namespace

void OpStats::Merge(const OpStats& other) {
  Append(&map_us, other.map_us);
  Append(&configure_us, other.configure_us);
  Append(&query_us, other.query_us);
  Append(&create_us, other.create_us);
  attempted += other.attempted;
  completed += other.completed;
  failed += other.failed;
  wrong_replies += other.wrong_replies;
  timeouts += other.timeouts;
  x_errors += other.x_errors;
  maps += other.maps;
  map_polls += other.map_polls;
  configures += other.configures;
  configure_polls += other.configure_polls;
  events += other.events;
  traced_op_ns += other.traced_op_ns;
  if (first_problem.empty()) {
    first_problem = other.first_problem;
  }
}

Client::Client(const Workload& workload, int index, uint64_t seed, int session)
    : workload_(workload), index_(index), rng_(ClientSeed(seed, session, index)) {}

bool Client::Connect(const std::string& socket_path) {
  display_ = std::make_unique<xlib::Display>(socket_path,
                                             "bench-client-" + std::to_string(index_));
  if (!display_->Connected()) {
    return false;
  }
  display_->SetErrorHandler([this](const xproto::XError& error) {
    if (stats_.first_problem.empty()) {
      stats_.first_problem = "X error: " + xproto::ErrorText(error);
    }
  });
  root_ = display_->RootWindow(0);
  return root_ != xproto::kNone;
}

template <typename Body>
void Client::Op(const char* name, Body&& body) {
  ++stats_.attempted;
  uint64_t errors_before = display_->ErrorCount();
  int64_t t0 = NowNs();
  op_span_ = log_.Root(name, ++op_id_);
  bool ok = body();
  DrainEvents(xproto::kNone);
  log_.End(op_span_);
  op_span_ = 0;
  if (log_.enabled()) {
    stats_.traced_op_ns += NowNs() - t0;
  }
  if (display_->ErrorCount() != errors_before) {
    ++stats_.x_errors;
    ok = false;
  }
  ++(ok ? stats_.completed : stats_.failed);
}

template <typename Call>
auto Client::X(const char* name, Call&& call) {
  ScopedSpan span(&log_, name, op_span_);
  return call();
}

bool Client::Wrong(const std::string& what) {
  ++stats_.wrong_replies;
  if (stats_.first_problem.empty()) {
    stats_.first_problem = "wrong reply: " + what;
  }
  return false;
}

bool Client::Timeout(const std::string& what) {
  ++stats_.timeouts;
  if (stats_.first_problem.empty()) {
    stats_.first_problem = "timeout: " + what;
  }
  return false;
}

int Client::Uniform(int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng_);
}

Client::Win* Client::ByFrame(xproto::WindowId frame) {
  for (Win& win : wins_) {
    if (win.frame == frame) {
      return &win;
    }
  }
  return nullptr;
}

void Client::Raised(xproto::WindowId frame) {
  std::erase(stack_, frame);
  stack_.push_back(frame);
  own_frames_.insert(frame);
}

void Client::Forget(const Win& win) {
  std::erase(stack_, win.frame);
  own_frames_.erase(win.frame);
}

bool Client::DrainEvents(xproto::WindowId watch) {
  ScopedSpan span(&log_, "xlib.NextEvent", op_span_);
  bool seen = false;
  while (std::optional<xproto::Event> event = display_->NextEvent()) {
    ++stats_.events;
    const auto* configure = std::get_if<xproto::ConfigureNotifyEvent>(&*event);
    if (watch != xproto::kNone && configure != nullptr && configure->window == watch &&
        configure->synthetic) {
      seen = true;
    }
  }
  return seen;
}

// ---- Operations ------------------------------------------------------------

bool Client::CreateTop(Win* win, bool full_hints) {
  xbase::Rect geometry{Uniform(0, 700), Uniform(0, 500), Uniform(120, 360), Uniform(80, 260)};
  int64_t t0 = NowNs();
  win->id = X("xlib.CreateWindow", [&] { return display_->CreateWindow(root_, geometry); });
  stats_.create_us.push_back(UsSince(t0));
  if (win->id == xproto::kNone) {
    return Wrong("CreateWindow returned no window");
  }
  win->geometry = geometry;
  win->name = "bench-" + std::to_string(index_) + "-" + std::to_string(++serial_);
  xlib::Display* d = display_.get();
  X("xlib.SelectInput",
    [&] { return d->SelectInput(win->id, xproto::kStructureNotifyMask); });
  X("xlib.SetWmName", [&] { return xlib::SetWmName(d, win->id, win->name); });
  X("xlib.SetWmClass", [&] { return xlib::SetWmClass(d, win->id, {"bench", "Bench"}); });
  xproto::SizeHints size_hints;
  size_hints.flags = xproto::kPMinSize;
  size_hints.min_width = 16;
  size_hints.min_height = 16;
  if (full_hints) {
    size_hints.flags |= xproto::kPMaxSize;
    size_hints.max_width = 1100;
    size_hints.max_height = 850;
  }
  X("xlib.SetWmNormalHints", [&] { return xlib::SetWmNormalHints(d, win->id, size_hints); });
  if (full_hints) {
    xproto::WmHints wm_hints;
    wm_hints.flags = xproto::kInputHint | xproto::kStateHint;
    X("xlib.SetWmHints", [&] { return xlib::SetWmHints(d, win->id, wm_hints); });
    X("xlib.SetWmCommand", [&] { return xlib::SetWmCommand(d, win->id, {"bench", win->name}); });
  }
  return true;
}

// MapWindow on a top-level is redirected to swm; the reaction is the
// window turning viewable, which it can only do inside its mapped frame.
bool Client::MapAndWait(Win* win) {
  int64_t t0 = NowNs();
  X("xlib.MapWindow", [&] { return display_->MapWindow(win->id); });
  for (;;) {
    ++stats_.map_polls;
    auto attrs = X("xlib.GetWindowAttributes",
                   [&] { return display_->GetWindowAttributes(win->id); });
    if (!attrs.has_value()) {
      return Wrong("GetWindowAttributes failed on a live window");
    }
    if (attrs->map_state == xproto::MapState::kViewable) {
      break;
    }
    if (TimedOut(t0)) {
      return Timeout("window not managed within the deadline");
    }
  }
  stats_.map_us.push_back(UsSince(t0));
  ++stats_.maps;
  if (!LearnFrame(win)) {
    return false;
  }
  Raised(win->frame);
  return true;
}

// Checks the parentage after manage and records the frame and decoration
// offsets the later configure checks predict from.
bool Client::LearnFrame(Win* win) {
  auto tree = X("xlib.QueryTree", [&] { return display_->QueryTree(win->id); });
  if (!tree.has_value()) {
    return Wrong("QueryTree failed on a managed window");
  }
  if (tree->parent == root_ || tree->parent == xproto::kNone) {
    return Wrong("viewable window was not reparented");
  }
  size_t children = win->subs.size() + (win->data_window != xproto::kNone ? 1 : 0);
  if (tree->children.size() != children) {
    return Wrong("manage changed the client's children");
  }
  win->parent = tree->parent;
  xproto::WindowId frame = tree->parent;
  for (int depth = 0;; ++depth) {
    auto up = X("xlib.QueryTree", [&] { return display_->QueryTree(frame); });
    if (!up.has_value() || up->parent == xproto::kNone || depth > 8) {
      return Wrong("decoration is not rooted");
    }
    if (up->parent == root_) {
      break;
    }
    frame = up->parent;
  }
  win->frame = frame;
  auto frame_rect = X("xlib.GetGeometry", [&] { return display_->GetGeometry(frame); });
  auto geometry = X("xlib.GetGeometry", [&] { return display_->GetGeometry(win->id); });
  auto origin = X("xlib.TranslateCoordinates",
                  [&] { return display_->TranslateCoordinates(win->id, root_, {0, 0}); });
  if (!frame_rect || !geometry || !origin) {
    return Wrong("geometry queries failed on a managed window");
  }
  // Floating keeps the size the client asked for (it is inside the hints);
  // under a slot policy the size is the policy's.
  if (workload_.kind != Kind::kCrowd && geometry->size() != win->geometry.size()) {
    return Wrong("floating manage changed the client's size");
  }
  win->frame_rect = *frame_rect;
  win->geometry = *geometry;
  win->offset = {origin->x - frame_rect->x, origin->y - frame_rect->y};
  return true;
}

// Floating policy: the WM moves or resizes the frame to honour the request;
// the reaction is the frame reaching the predicted geometry.
bool Client::ConfigureAndWait(Win* win, uint16_t mask, const xserver::ConfigureValues& values,
                              const xbase::Rect& expect_frame) {
  int64_t t0 = NowNs();
  X("xlib.ConfigureWindow", [&] { return display_->ConfigureWindow(win->id, mask, values); });
  for (;;) {
    ++stats_.configure_polls;
    auto rect = X("xlib.GetGeometry", [&] { return display_->GetGeometry(win->frame); });
    if (!rect.has_value()) {
      return Wrong("GetGeometry failed on a managed frame");
    }
    if (*rect == expect_frame) {
      break;
    }
    if (TimedOut(t0)) {
      return Timeout("frame did not reach the requested geometry");
    }
  }
  stats_.configure_us.push_back(UsSince(t0));
  ++stats_.configures;
  win->geometry.width += expect_frame.width - win->frame_rect.width;
  win->geometry.height += expect_frame.height - win->frame_rect.height;
  win->frame_rect = expect_frame;
  return true;
}

bool Client::Move(Win* win) {
  xbase::Point to{Uniform(0, 1152 - win->frame_rect.width),
                  Uniform(win->offset.y, 900 - win->frame_rect.height + win->offset.y)};
  xserver::ConfigureValues values;
  values.geometry = {to.x, to.y, 0, 0};
  xbase::Rect expect = win->frame_rect;
  expect.x = to.x - win->offset.x;
  expect.y = to.y - win->offset.y;
  return ConfigureAndWait(win, xproto::kConfigX | xproto::kConfigY, values, expect);
}

bool Client::Resize(Win* win) {
  xbase::Size to{Uniform(120, 400), Uniform(80, 300)};
  xserver::ConfigureValues values;
  values.geometry = {0, 0, to.width, to.height};
  xbase::Rect expect = win->frame_rect;
  expect.width += to.width - win->geometry.width;
  expect.height += to.height - win->geometry.height;
  return ConfigureAndWait(win, xproto::kConfigWidth | xproto::kConfigHeight, values, expect);
}

// The reaction is the frame becoming the top-most of this client's frames
// (other clients restack only their own, so they cannot fake or undo it).
bool Client::RaiseAndWait(Win* win) {
  if (win == nullptr) {
    return Wrong("no window to raise");
  }
  xserver::ConfigureValues values;
  values.stack_mode = xproto::StackMode::kAbove;
  int64_t t0 = NowNs();
  X("xlib.ConfigureWindow",
    [&] { return display_->ConfigureWindow(win->id, xproto::kConfigStackMode, values); });
  for (;;) {
    ++stats_.configure_polls;
    auto tree = X("xlib.QueryTree", [&] { return display_->QueryTree(root_); });
    if (!tree.has_value()) {
      return Wrong("QueryTree failed on the root");
    }
    auto top = std::find_if(tree->children.rbegin(), tree->children.rend(),
                            [&](xproto::WindowId w) { return own_frames_.contains(w); });
    if (top != tree->children.rend() && *top == win->frame) {
      break;
    }
    if (TimedOut(t0)) {
      return Timeout("frame not raised within the deadline");
    }
  }
  stats_.configure_us.push_back(UsSince(t0));
  ++stats_.configures;
  Raised(win->frame);
  return true;
}

// Slot policy: swm denies the move/resize, re-asserts the layout and tells
// the client with a synthetic ConfigureNotify.  Replies to the second poll
// onward were produced after a full swm turn over the request, so the
// reaction is a synthetic ConfigureNotify seen from then on.
bool Client::DenyAndWait(Win* win) {
  bool move = Uniform(0, 1) == 0;
  xserver::ConfigureValues values;
  uint16_t mask = 0;
  if (move) {
    mask = xproto::kConfigX | xproto::kConfigY;
    values.geometry = {Uniform(0, 1000), Uniform(0, 800), 0, 0};
  } else {
    mask = xproto::kConfigWidth | xproto::kConfigHeight;
    values.geometry = {0, 0, Uniform(50, 500), Uniform(40, 400)};
  }
  int64_t t0 = NowNs();
  X("xlib.ConfigureWindow", [&] { return display_->ConfigureWindow(win->id, mask, values); });
  bool answered = false;
  std::optional<xbase::Rect> rect;
  for (int polls = 1;; ++polls) {
    ++stats_.configure_polls;
    rect = X("xlib.GetGeometry", [&] { return display_->GetGeometry(win->id); });
    if (!rect.has_value()) {
      return Wrong("GetGeometry failed on a managed window");
    }
    answered |= DrainEvents(win->id);
    if (polls >= 2 && answered) {
      break;
    }
    if (TimedOut(t0)) {
      return Timeout("no synthetic ConfigureNotify within the deadline");
    }
  }
  stats_.configure_us.push_back(UsSince(t0));
  ++stats_.configures;
  // The policy's geometry stands: the client stays at its slot origin and a
  // resize to a size it did not already have is not applied.
  if (rect->x != win->geometry.x || rect->y != win->geometry.y) {
    return Wrong("slot window moved inside its frame");
  }
  if (!move && rect->size() == values.geometry.size() &&
      values.geometry.size() != win->geometry.size()) {
    return Wrong("slot policy applied a client resize");
  }
  win->geometry = *rect;
  return true;
}

bool Client::Rename(Win* win) {
  win->name = "renamed-" + std::to_string(index_) + "-" + std::to_string(++serial_);
  X("xlib.SetWmName", [&] { return xlib::SetWmName(display_.get(), win->id, win->name); });
  auto name = X("xlib.GetWmName", [&] { return xlib::GetWmName(display_.get(), win->id); });
  return name == win->name || Wrong("WM_NAME read back differs");
}

// One reply-bearing request, checked against the model.
bool Client::Query(const Win& win) {
  int kind = Uniform(0, 5);
  int64_t t0 = NowNs();
  bool ok = false;
  const char* what = "";
  switch (kind) {
    case 0: {
      what = "GetGeometry";
      auto rect = X("xlib.GetGeometry", [&] { return display_->GetGeometry(win.id); });
      ok = rect == win.geometry;
      break;
    }
    case 1: {
      what = "QueryTree";
      auto tree = X("xlib.QueryTree", [&] { return display_->QueryTree(win.id); });
      size_t children = win.subs.size() + (win.data_window != xproto::kNone ? 1 : 0);
      ok = tree && tree->parent == win.parent && tree->children.size() == children;
      break;
    }
    case 2: {
      what = "GetWindowAttributes";
      auto attrs = X("xlib.GetWindowAttributes",
                     [&] { return display_->GetWindowAttributes(win.id); });
      ok = attrs && attrs->map_state == xproto::MapState::kViewable &&
           !attrs->override_redirect;
      break;
    }
    case 3: {
      what = "TranslateCoordinates";
      auto at = X("xlib.TranslateCoordinates",
                  [&] { return display_->TranslateCoordinates(win.id, root_, {0, 0}); });
      ok = at && at->x == win.frame_rect.x + win.offset.x &&
           at->y == win.frame_rect.y + win.offset.y;
      break;
    }
    case 4: {
      what = "InternAtom";
      const auto& [name, atom] = atoms_[Uniform(0, static_cast<int>(atoms_.size()) - 1)];
      ok = X("xlib.InternAtom", [&] { return display_->InternAtom(name); }) == atom;
      break;
    }
    default: {
      what = "GetProperty";
      if (win.data_window != xproto::kNone) {
        auto prop = X("xlib.GetProperty",
                      [&] { return display_->GetProperty(win.data_window, data_atom_); });
        ok = prop && prop->format == 8 && prop->data == win.data;
      } else {
        auto prop = X("xlib.GetProperty",
                      [&] { return display_->GetProperty(win.id, wm_name_atom_); });
        ok = prop && std::string(prop->data.begin(), prop->data.end()) == win.name;
      }
      break;
    }
  }
  stats_.query_us.push_back(UsSince(t0));
  return ok || Wrong(std::string(what) + " reply disagrees with the model");
}

// queries: replace the private property (16 B - 4 KB); a later GetProperty
// must read these exact bytes back.
bool Client::Write(Win* win) {
  std::vector<uint8_t> data(static_cast<size_t>(Uniform(16, 4096)));
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>(rng_());
  }
  X("xlib.ChangeProperty", [&] {
    return display_->ChangeProperty(win->data_window, data_atom_, string_atom_, 8,
                                    xserver::PropMode::kReplace, data);
  });
  win->data = std::move(data);
  return true;
}

bool Client::DestroyAndWait(const Win& win) {
  int64_t t0 = NowNs();
  X("xlib.DestroyWindow", [&] { return display_->DestroyWindow(win.id); });
  for (;;) {
    auto tree = X("xlib.QueryTree", [&] { return display_->QueryTree(root_); });
    if (!tree.has_value()) {
      return Wrong("QueryTree failed on the root");
    }
    auto gone = [&](xproto::WindowId w) {
      return w == xproto::kNone ||
             std::find(tree->children.begin(), tree->children.end(), w) == tree->children.end();
    };
    if (gone(win.id) && gone(win.frame)) {
      return true;
    }
    if (TimedOut(t0)) {
      return Timeout("frame not destroyed within the deadline");
    }
  }
}

// crowd: unmap and re-map one subwindow (no redirect, swm not involved);
// the GetWindowAttributes round trip that checks it is the query sample.
bool Client::Remap(const Win& win) {
  xproto::WindowId sub = win.subs[static_cast<size_t>(
      Uniform(0, static_cast<int>(win.subs.size()) - 1))];
  X("xlib.UnmapWindow", [&] { return display_->UnmapWindow(sub); });
  X("xlib.MapWindow", [&] { return display_->MapWindow(sub); });
  int64_t t0 = NowNs();
  auto attrs = X("xlib.GetWindowAttributes", [&] { return display_->GetWindowAttributes(sub); });
  stats_.query_us.push_back(UsSince(t0));
  return (attrs && attrs->map_state == xproto::MapState::kViewable) ||
         Wrong("re-mapped subwindow is not viewable");
}

bool Client::CreateApp(Win* win) {
  if (!CreateTop(win, false)) {
    return false;
  }
  for (int i = 0; i < workload_.subwindows; ++i) {
    xbase::Rect geometry{(i % 6) * 20, (i / 6) * 14, 18, 12};
    int64_t t0 = NowNs();
    xproto::WindowId sub =
        X("xlib.CreateWindow", [&] { return display_->CreateWindow(win->id, geometry); });
    stats_.create_us.push_back(UsSince(t0));
    if (sub == xproto::kNone) {
      return Wrong("CreateWindow returned no subwindow");
    }
    win->subs.push_back(sub);
  }
  for (xproto::WindowId sub : win->subs) {
    X("xlib.MapWindow", [&] { return display_->MapWindow(sub); });
  }
  return true;
}

// crowd: destroy an app and start a new one in its place; its manage
// reflows every client on the screen.
bool Client::ReplaceApp(size_t slot) {
  Win old = std::move(wins_[slot]);
  wins_.erase(wins_.begin() + static_cast<std::ptrdiff_t>(slot));
  Forget(old);
  X("xlib.DestroyWindow", [&] { return display_->DestroyWindow(old.id); });
  Win fresh;
  bool ok = CreateApp(&fresh) && MapAndWait(&fresh);
  if (fresh.id != xproto::kNone) {
    wins_.push_back(std::move(fresh));
  }
  return ok;
}

// ---- Workload steps ----------------------------------------------------------

void Client::ChurnCycle() {
  // The cycle's own window: created, managed, configured, renamed, queried
  // and destroyed; the set-up windows stay and are raised above it.
  wins_.emplace_back();
  size_t it = wins_.size() - 1;
  bool created = false;
  Op("op.create", [&] { return created = CreateTop(&wins_[it], true); });
  bool managed = false;
  if (created) {
    Op("op.map", [&] { return managed = MapAndWait(&wins_[it]); });
  }
  if (managed) {
    for (int i = 0; i < 3; ++i) {
      int kind = Uniform(0, 2);
      Op("op.configure", [&] {
        return kind == 0   ? Move(&wins_[it])
               : kind == 1 ? Resize(&wins_[it])
                           : RaiseAndWait(Bottom());
      });
    }
    Op("op.rename", [&] { return Rename(&wins_[it]); });
    for (int i = 0; i < 3; ++i) {
      Op("op.query", [&] { return Query(wins_[it]); });
    }
  }
  Win done = std::move(wins_[it]);
  wins_.pop_back();
  Forget(done);
  if (done.id != xproto::kNone) {
    Op("op.destroy", [&] { return DestroyAndWait(done); });
  }
}

void Client::QueriesStep() {
  Win& win = wins_[static_cast<size_t>(Uniform(0, static_cast<int>(wins_.size()) - 1))];
  if (Uniform(0, 9) < 2) {
    Op("op.write", [&] { return Write(&win); });
  } else {
    Op("op.query", [&] { return Query(win); });
  }
}

void Client::CrowdStep() {
  int pick = Uniform(0, 99);
  size_t slot = static_cast<size_t>(Uniform(0, static_cast<int>(wins_.size()) - 1));
  if (pick < 40) {
    Op("op.remap", [&] { return Remap(wins_[slot]); });
  } else if (pick < 65) {
    Op("op.configure", [&] { return DenyAndWait(&wins_[slot]); });
  } else if (pick < 85) {
    Op("op.configure", [&] { return RaiseAndWait(Bottom()); });
  } else {
    Op("op.replace", [&] { return ReplaceApp(slot); });
  }
}

void Client::Step() {
  switch (workload_.kind) {
    case Kind::kChurn:
      ChurnCycle();
      break;
    case Kind::kQueries:
      QueriesStep();
      break;
    case Kind::kCrowd:
      CrowdStep();
      break;
  }
}

bool Client::Populate() {
  std::vector<std::string> names = {"WM_NAME", "WM_CLASS", "WM_HINTS", "WM_NORMAL_HINTS",
                                    "WM_COMMAND", "STRING"};
  for (int k = 0; k < 8; ++k) {
    names.push_back("_BENCH_ATOM_" + std::to_string(index_) + "_" + std::to_string(k));
  }
  names.push_back("_BENCH_DATA_" + std::to_string(index_));
  for (const std::string& name : names) {
    xproto::AtomId atom = display_->InternAtom(name);
    if (atom == xproto::kAtomNone) {
      return Wrong("InternAtom failed during set-up");
    }
    atoms_.emplace_back(name, atom);
  }
  wm_name_atom_ = atoms_[0].second;
  string_atom_ = atoms_[5].second;
  data_atom_ = atoms_.back().second;

  for (int i = 0; i < workload_.unmapped; ++i) {
    xbase::Rect geometry{(i * 37) % 1000, (i * 53) % 800, 40, 30};
    Op("op.create", [&] {
      int64_t t0 = NowNs();
      xproto::WindowId id =
          X("xlib.CreateWindow", [&] { return display_->CreateWindow(root_, geometry); });
      stats_.create_us.push_back(UsSince(t0));
      return id != xproto::kNone || Wrong("CreateWindow returned no window");
    });
  }
  for (int i = 0; i < workload_.windows; ++i) {
    Win win;
    bool ok = true;
    Op("op.create", [&] {
      return ok = workload_.kind == Kind::kCrowd ? CreateApp(&win) : CreateTop(&win, true);
    });
    if (ok && workload_.kind == Kind::kQueries) {
      Op("op.create", [&] {
        win.data_window = X("xlib.CreateWindow", [&] {
          return display_->CreateWindow(win.id, {0, 0, 8, 8}, 0, false,
                                        xproto::WindowClass::kInputOnly);
        });
        return win.data_window != xproto::kNone && Write(&win);
      });
    }
    if (ok) {
      Op("op.map", [&] { return ok = MapAndWait(&win); });
    }
    if (ok && workload_.kind == Kind::kQueries) {
      Op("op.configure", [&] { return Move(&win); });
    }
    wins_.push_back(std::move(win));
  }
  return stats_.failed == 0;
}

void Client::Steps(int count) {
  for (int i = 0; i < count; ++i) {
    Step();
  }
}

void Client::RunUntil(std::atomic<int64_t>* stop_ns) {
  while (NowNs() < stop_ns->load(std::memory_order_relaxed)) {
    Step();
    if (log_.full()) {
      stop_ns->store(0, std::memory_order_relaxed);
    }
  }
}

std::optional<size_t> Client::RootChildren() {
  auto tree = display_->QueryTree(root_);
  if (!tree.has_value()) {
    return std::nullopt;
  }
  return tree->children.size();
}

OpStats Client::TakeStats() { return std::exchange(stats_, OpStats{}); }

}  // namespace e2e
