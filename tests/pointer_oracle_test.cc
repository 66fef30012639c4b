// Pointer-window oracle (docs/PROTOCOL.md "Pointer window").  Seeded random
// sequences of create, map, unmap, move/resize, raise/lower, reparent,
// destroy (often of a subtree holding the pointer window), shape set/clear,
// warp and disconnect run against a server with a tree several levels deep
// on two screens.  After every step the server's pointer window must equal a
// hit test this file computes from public queries alone (QueryTree,
// GetGeometry, IsViewable, GetShape), and the Enter/Leave events an observer
// receives must be exactly the transitions between the two.
//
// A shape change does not recompute the pointer window; the next request
// that does (a map, unmap, configure, destroy, reparent of a mapped window,
// warp or a disconnect that tears something down) catches up.  The oracle
// models that lag instead of looking away from it.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "src/base/region.h"
#include "src/xproto/events.h"
#include "src/xserver/faults.h"
#include "src/xserver/server.h"

namespace xserver {
namespace {

using xproto::ClientId;
using xproto::CrossingEvent;
using xproto::kNone;
using xproto::WindowId;

constexpr int kSteps = 800;

// The deepest viewable window under the pointer: the topmost viewable child
// whose rectangle (and bounding shape, if any) holds the point, recursively.
WindowId OracleHit(const Server& server) {
  PointerState pointer = server.QueryPointer();
  WindowId window = server.RootWindow(pointer.screen);
  xbase::Point local = pointer.root_pos;
  for (;;) {
    WindowId hit = kNone;
    std::vector<WindowId> children = server.QueryTree(window)->children;
    for (auto it = children.rbegin(); it != children.rend() && hit == kNone; ++it) {
      if (!server.IsViewable(*it)) {
        continue;
      }
      xbase::Rect g = *server.GetGeometry(*it);
      xbase::Point child_local{local.x - g.x, local.y - g.y};
      std::optional<xbase::Region> shape = server.GetShape(*it);
      if (xbase::Rect{0, 0, g.width, g.height}.Contains(child_local) &&
          (!shape.has_value() || shape->Contains(child_local))) {
        hit = *it;
        local = child_local;
      }
    }
    if (hit == kNone) {
      return window;
    }
    window = hit;
  }
}

class PointerOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  enum class Op { kCreate, kMap, kUnmap, kConfigure, kReparent, kDestroy, kShape, kWarp,
                  kDisconnect };

  void SetUp() override {
    server_ = std::make_unique<Server>(
        std::vector<ScreenConfig>{ScreenConfig{160, 120, false}, ScreenConfig{120, 90, false}});
    observer_ = server_->Connect("observer");
    for (int s = 0; s < server_->ScreenCount(); ++s) {
      Observe(server_->RootWindow(s));
    }
    clients_ = {server_->Connect("a"), server_->Connect("b")};
    // Start from a mapped chain four deep per client; the random steps
    // reshape it from there.
    for (size_t i = 0; i < clients_.size(); ++i) {
      ClientId client = clients_[i];
      WindowId parent = server_->RootWindow(0);
      xbase::Rect rect{10 + 60 * static_cast<int>(i), 10, 70, 80};
      for (int depth = 0; depth < 4; ++depth, rect = {3, 3, rect.width - 8, rect.height - 8}) {
        WindowId window = server_->CreateWindow(client, parent, rect, 0,
                                                xproto::WindowClass::kInputOutput, false);
        server_->MapWindow(client, window);
        windows_.push_back(window);
        owner_[window] = client;
        Observe(window);
        parent = window;
      }
    }
    // Into the first chain's deepest window.
    xbase::Point origin = Origin(windows_[3]);
    server_->WarpPointer(0, {origin.x + 1, origin.y + 1});
    DrainCrossings();
  }

  void Observe(WindowId window) {
    server_->SelectInput(observer_, window,
                         xproto::kEnterWindowMask | xproto::kLeaveWindowMask);
  }

  int Pick(int n) { return rng_.Range(0, n - 1); }

  // A random one of `windows` that satisfies `keep`, or `fallback`.
  template <class Keep>
  WindowId PickWhere(const std::vector<WindowId>& windows, Keep keep, WindowId fallback) {
    std::vector<WindowId> kept;
    std::copy_if(windows.begin(), windows.end(), std::back_inserter(kept), keep);
    return kept.empty() ? fallback : kept[Pick(static_cast<int>(kept.size()))];
  }

  std::vector<WindowId> Live() {
    std::erase_if(windows_, [&](WindowId w) { return !server_->WindowExists(w); });
    return windows_;
  }

  bool Mapped(WindowId window) {
    return server_->GetWindowAttributes(window)->map_state != xproto::MapState::kUnmapped;
  }

  bool InSubtree(WindowId window, WindowId top) {
    for (WindowId cur = window; cur != kNone; cur = server_->QueryTree(cur)->parent) {
      if (cur == top) {
        return true;
      }
    }
    return false;
  }

  // A rectangle in `parent`'s coordinates, mostly inside it.
  xbase::Rect RandomRect(WindowId parent) {
    xbase::Rect p = *server_->GetGeometry(parent);
    return {rng_.Range(-3, p.width * 2 / 3), rng_.Range(-3, p.height * 2 / 3),
            rng_.Range(std::max(1, p.width / 3), std::max(1, p.width)),
            rng_.Range(std::max(1, p.height / 3), std::max(1, p.height))};
  }

  WindowId ParentOf(WindowId window) { return server_->QueryTree(window)->parent; }

  // The window's top-left corner in its root's coordinates, and that root,
  // from parent links (a reparent across screens leaves a descendant's own
  // screen number behind, so ScreenOfWindow cannot be trusted for it).
  xbase::Point Origin(WindowId window, WindowId* root = nullptr) {
    xbase::Point origin;
    for (WindowId cur = window; cur != kNone; cur = ParentOf(cur)) {
      xbase::Rect g = *server_->GetGeometry(cur);
      origin = {origin.x + g.x, origin.y + g.y};
      if (root != nullptr) {
        *root = cur;
      }
    }
    return origin;
  }

  int ScreenOf(WindowId root) {
    for (int s = 0; s < server_->ScreenCount(); ++s) {
      if (server_->RootWindow(s) == root) {
        return s;
      }
    }
    return -1;
  }

  // Runs one random step; returns whether the server recomputes the pointer
  // window during it (Op::kShape never does).
  bool Step(Op op) {
    std::vector<WindowId> live = Live();
    if (live.empty() && op != Op::kWarp && op != Op::kCreate) {
      op = Op::kCreate;
    }
    op_ = op;
    ClientId client = clients_[Pick(2)];
    WindowId target = live.empty() ? kNone : live[Pick(static_cast<int>(live.size()))];
    switch (op) {
      case Op::kCreate: {
        WindowId parent = !live.empty() && rng_.Roll(700)
                              ? target
                              : server_->RootWindow(Pick(server_->ScreenCount()));
        WindowId window = server_->CreateWindow(client, parent, RandomRect(parent), 0,
                                                xproto::WindowClass::kInputOutput, false);
        windows_.push_back(window);
        owner_[window] = client;
        Observe(window);
        if (rng_.Roll(200)) {
          ClientId other = clients_[0] == client ? clients_[1] : clients_[0];
          server_->ChangeSaveSet(other, window, true);
          save_sets_[other].insert(window);
        }
        return false;
      }
      case Op::kMap: {
        if (rng_.Roll(800)) {
          target = PickWhere(live, [&](WindowId w) { return !Mapped(w); }, target);
        }
        bool was_mapped = Mapped(target);
        server_->MapWindow(client, target);
        return !was_mapped;
      }
      case Op::kUnmap: {
        bool was_mapped = Mapped(target);
        server_->UnmapWindow(client, target);
        return was_mapped;
      }
      case Op::kConfigure: {
        xbase::Rect r = RandomRect(ParentOf(target));
        switch (Pick(5)) {
          case 0: server_->MoveWindow(client, target, {r.x, r.y}); break;
          case 1: server_->ResizeWindow(client, target, r.size()); break;
          case 2: server_->MoveResizeWindow(client, target, r); break;
          case 3: server_->RaiseWindow(client, target); break;
          default: server_->LowerWindow(client, target); break;
        }
        return true;
      }
      case Op::kReparent: {
        std::vector<WindowId> parents;
        for (int s = 0; s < server_->ScreenCount(); ++s) {
          parents.push_back(server_->RootWindow(s));
        }
        for (WindowId w : live) {
          if (!InSubtree(w, target)) {
            parents.push_back(w);
          }
        }
        bool was_mapped = Mapped(target);
        WindowId parent = parents[Pick(static_cast<int>(parents.size()))];
        xbase::Rect r = RandomRect(parent);
        server_->ReparentWindow(client, target, parent, {r.x, r.y});
        return was_mapped;
      }
      case Op::kDestroy: {
        // Half the time, an ancestor of the pointer window: the subtree
        // holding the pointer dies.
        std::vector<WindowId> chain;
        for (WindowId cur = server_->QueryPointer().window;
             server_->QueryTree(cur)->parent != kNone; cur = server_->QueryTree(cur)->parent) {
          chain.push_back(cur);
        }
        if (!chain.empty() && rng_.Roll(500)) {
          target = chain[Pick(static_cast<int>(chain.size()))];
        }
        server_->DestroyWindow(client, target);
        return true;
      }
      case Op::kShape: {
        if (rng_.Roll(300)) {
          server_->ShapeClear(client, target);
        } else {
          xbase::Rect g = *server_->GetGeometry(target);
          std::vector<xbase::Rect> rects;
          for (int i = rng_.Range(1, 3); i > 0; --i) {
            rects.push_back({rng_.Range(0, g.width), rng_.Range(0, g.height),
                             rng_.Range(1, g.width), rng_.Range(1, g.height)});
          }
          server_->ShapeSetRegion(client, target, xbase::Region(rects));
        }
        return false;
      }
      case Op::kWarp: {
        // Half the time into a viewable window, so the pointer goes deep.
        target = PickWhere(live, [&](WindowId w) { return server_->IsViewable(w); }, kNone);
        if (target != kNone && rng_.Roll(500)) {
          WindowId root = kNone;
          xbase::Point origin = Origin(target, &root);
          xbase::Rect g = *server_->GetGeometry(target);
          server_->WarpPointer(ScreenOf(root),
                               {origin.x + Pick(g.width), origin.y + Pick(g.height)});
        } else {
          int screen = rng_.Roll(100) ? Pick(server_->ScreenCount())
                                      : server_->QueryPointer().screen;
          xbase::Size size = server_->screen(screen).size;
          server_->WarpPointer(screen, {Pick(size.width), Pick(size.height)});
        }
        return true;
      }
      case Op::kDisconnect: {
        size_t index = static_cast<size_t>(Pick(2));
        ClientId leaving = clients_[index];
        bool tears_down = false;
        for (WindowId w : live) {
          tears_down = tears_down || owner_[w] == leaving ||
                       (save_sets_[leaving].count(w) != 0 && owner_[w] != leaving);
        }
        server_->Disconnect(leaving);
        save_sets_.erase(leaving);
        clients_[index] = server_->Connect("replacement");
        return tears_down;
      }
    }
    return false;
  }

  // The observer's crossing events since the last drain, in order.
  std::vector<CrossingEvent> DrainCrossings() {
    std::vector<CrossingEvent> out;
    while (std::optional<xproto::Event> event = server_->NextEvent(observer_)) {
      if (const auto* crossing = std::get_if<CrossingEvent>(&*event)) {
        out.push_back(*crossing);
      }
    }
    return out;
  }

  std::unique_ptr<Server> server_;
  FaultRng rng_{GetParam()};
  ClientId observer_ = 0;
  std::vector<ClientId> clients_;
  std::vector<WindowId> windows_;
  std::map<WindowId, ClientId> owner_;
  std::map<ClientId, std::set<WindowId>> save_sets_;
  Op op_ = Op::kCreate;
};

TEST_P(PointerOracleTest, PointerWindowAndCrossingsFollowTheHitTest) {
  // Weights out of 100, in Op order.
  const int kWeights[] = {30, 20, 5, 14, 6, 5, 8, 10, 2};
  bool lag = false;  // A shape change the server has not caught up with.
  int max_depth = 0;
  for (int step = 0; step < kSteps; ++step) {
    int roll = Pick(100);
    int op = 0;
    while (roll >= kWeights[op]) {
      roll -= kWeights[op++];
    }
    WindowId before = server_->QueryPointer().window;
    bool recomputes = Step(static_cast<Op>(op));
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " step " + std::to_string(step) +
                 " op " + std::to_string(static_cast<int>(op_)));

    PointerState pointer = server_->QueryPointer();
    WindowId root = server_->RootWindow(pointer.screen);
    WindowId expected = OracleHit(*server_);
    if (recomputes) {
      ASSERT_EQ(pointer.window, expected);
    } else {
      ASSERT_EQ(pointer.window, before) << "nothing recomputed the pointer window";
      if (op_ != Op::kShape) {
        ASSERT_TRUE(lag || pointer.window == expected);
      }
    }
    lag = pointer.window != expected;

    // Crossings: each transition is a Leave of the window the pointer was in
    // (the root once that window died) and an Enter of the next, ending at
    // the pointer window.  Single-update steps make at most one transition.
    std::vector<CrossingEvent> crossings = DrainCrossings();
    ASSERT_EQ(crossings.size() % 2, 0u);
    size_t max_transitions = op_ == Op::kDisconnect ? crossings.size()
                             : !recomputes           ? 0
                             : op_ == Op::kReparent  ? 2
                                                     : 1;
    ASSERT_LE(crossings.size() / 2, max_transitions);
    WindowId current = before;
    for (size_t i = 0; i < crossings.size(); i += 2) {
      const CrossingEvent& leave = crossings[i];
      const CrossingEvent& enter = crossings[i + 1];
      if (leave.window != current && !server_->WindowExists(current)) {
        current = root;  // The pointer window died with its subtree.
      }
      ASSERT_FALSE(leave.enter);
      ASSERT_EQ(leave.window, current);
      ASSERT_TRUE(enter.enter);
      ASSERT_NE(enter.window, current);
      ASSERT_EQ(leave.root_pos, pointer.root_pos);
      ASSERT_EQ(enter.root_pos, pointer.root_pos);
      current = enter.window;
    }
    if (crossings.empty() && current != pointer.window) {
      ASSERT_FALSE(server_->WindowExists(current));
      current = root;
    }
    ASSERT_EQ(current, pointer.window);
    if (crossings.size() == 2 && op_ != Op::kDisconnect) {
      xbase::Point origin = Origin(pointer.window);
      xbase::Point pos{pointer.root_pos.x - origin.x, pointer.root_pos.y - origin.y};
      ASSERT_EQ(crossings[1].pos, pos);
    }

    int depth = 0;
    for (WindowId cur = pointer.window; cur != root; cur = server_->QueryTree(cur)->parent) {
      ++depth;
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_GE(max_depth, 3) << "the pointer never got three levels deep";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointerOracleTest, ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace xserver
