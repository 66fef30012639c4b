// Structural performance gates (`ctest -L perf`).  Each test pins how much
// work an operation does as a count — requests, events, reply bytes — at two
// population sizes, so a cost that grows with the window count fails here
// long before it shows up as a wall-clock regression.  No test reads a
// clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/swm/policy/layout_policy.h"
#include "src/xlib/client_app.h"
#include "src/xlib/display.h"
#include "src/xproto/wire.h"
#include "src/xserver/server.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

class SlotReflowWorkTest : public SwmTest, public ::testing::WithParamInterface<int> {
 protected:
  // A dynamic grid of `count` managed clients on a full-size screen.
  std::vector<std::unique_ptr<xlib::ClientApp>> StartGrid(int count) {
    StartWm("swm.layout.policy: dynamic\n", "motif", {xserver::ScreenConfig{1152, 900, false}});
    std::vector<std::unique_ptr<xlib::ClientApp>> apps;
    for (int i = 0; i < count; ++i) {
      std::string name = "app" + std::to_string(i);
      apps.push_back(Spawn(name, {name, "App"}, {0, 0, 40, 30}));
    }
    for (auto& app : apps) {
      app->ProcessEvents();
    }
    return apps;
  }

  uint64_t WmRequests() { return server_->SequenceNumber(wm_->display().client_id()); }

  size_t PendingClientEvents(const std::vector<std::unique_ptr<xlib::ClientApp>>& apps) {
    size_t pending = 0;
    for (const auto& app : apps) {
      pending += server_->PendingEvents(app->display().client_id());
    }
    return pending;
  }
};

// Re-asserting a grid nobody left costs nothing: no ConfigureWindow, no
// synthetic ConfigureNotify — no request of any kind.
TEST_P(SlotReflowWorkTest, UnchangedGridRelayoutIssuesNoRequests) {
  std::vector<std::unique_ptr<xlib::ClientApp>> apps = StartGrid(GetParam());
  uint64_t requests = server_->TotalRequests();
  uint64_t wm_requests = WmRequests();
  wm_->layout_policy().Relayout(0);
  wm_->ProcessEvents();
  EXPECT_EQ(server_->TotalRequests() - requests, 0u);
  EXPECT_EQ(WmRequests() - wm_requests, 0u);
  EXPECT_EQ(PendingClientEvents(apps), 0u);
}

// A denied move answers the requester and nobody else: one synthetic
// ConfigureNotify, the same request count at any population size.
TEST_P(SlotReflowWorkTest, DeniedMoveCostsOneSyntheticEvent) {
  std::vector<std::unique_ptr<xlib::ClientApp>> apps = StartGrid(GetParam());
  uint64_t wm_requests = WmRequests();
  apps[GetParam() / 2]->RequestMoveResize({3, 4, 50, 60});
  wm_->ProcessEvents();
  EXPECT_EQ(WmRequests() - wm_requests, 1u) << "only the SendEvent answering the requester";
  EXPECT_EQ(PendingClientEvents(apps), 1u);
}

INSTANTIATE_TEST_SUITE_P(Clients, SlotReflowWorkTest, ::testing::Values(8, 64));

// QueryLastCreated (opcode 136) answers with one id in one fixed frame, no
// matter how many windows the asking client owns.
TEST(LastCreatedReplyWork, FixedFrameForOneOrAThousandWindows) {
  xserver::Server server;
  xlib::Display client(&server, "owner");
  client.set_wire_mode(true);  // Creates travel as bytes, like a remote client's.
  std::vector<uint8_t> query = xproto::EncodeRequestBytes(xproto::QueryLastCreatedRequest{});
  int owned = 0;
  for (int target : {1, 1000}) {
    xproto::WindowId newest = xproto::kNone;
    for (; owned < target; ++owned) {
      newest = client.CreateWindow(server.RootWindow(0), {0, 0, 4, 4});
      ASSERT_NE(newest, xproto::kNone);
    }
    xserver::Server::DispatchResult result = server.DispatchBytes(client.client_id(), query);
    ASSERT_EQ(result.replies, 1u);
    EXPECT_EQ(result.reply_bytes.size(), xproto::kMinReplyBytes) << target << " windows";
    xproto::Reply reply;
    xproto::ParseError error;
    ASSERT_EQ(xproto::DecodeReply(result.reply_bytes, &reply, &error),
              result.reply_bytes.size());
    EXPECT_TRUE(reply == xproto::Reply(xproto::LastCreatedReply{.window = newest}));
  }
}

// ---- Server window tree -------------------------------------------------------

using xproto::WindowId;

WindowId CreateMapped(xserver::Server* server, xproto::ClientId client, WindowId parent,
                      const xbase::Rect& geometry) {
  WindowId window = server->CreateWindow(client, parent, geometry, 0,
                                         xproto::WindowClass::kInputOutput, false);
  server->MapWindow(client, window);
  return window;
}

class PointerWorkTest : public ::testing::TestWithParam<int> {};

// A map, unmap, configure or destroy the pointer is outside of cannot move
// the pointer window, so the hit test examines no window at all, whether
// 100 or 100,000 windows are mapped.
TEST_P(PointerWorkTest, ChangeAwayFromThePointerVisitsNoWindow) {
  xserver::Server server;  // 1152x900, pointer at its centre (576, 450).
  xproto::ClientId client = server.Connect();
  WindowId root = server.RootWindow(0);
  for (int i = 0; i < GetParam(); ++i) {
    CreateMapped(&server, client, root, {(i % 64) * 6, (i / 64) % 64 * 6, 5, 5});
  }
  WindowId frame = CreateMapped(&server, client, root, {10, 500, 100, 100});
  WindowId child = CreateMapped(&server, client, frame, {5, 5, 50, 50});
  CreateMapped(&server, client, child, {5, 5, 20, 20});
  ASSERT_EQ(server.QueryPointer().window, root);

  auto visits = [&](auto op) {
    uint64_t before = server.windows_visited();
    op();
    return server.windows_visited() - before;
  };
  EXPECT_EQ(visits([&] { server.UnmapWindow(client, frame); }), 0u) << "unmap";
  EXPECT_EQ(visits([&] { server.MapWindow(client, frame); }), 0u) << "map";
  EXPECT_EQ(visits([&] { server.MoveWindow(client, frame, {20, 600}); }), 0u) << "move";
  EXPECT_EQ(visits([&] { server.ResizeWindow(client, child, {60, 70}); }), 0u) << "resize";
  EXPECT_EQ(visits([&] { server.RaiseWindow(client, frame); }), 0u) << "raise";
  EXPECT_EQ(visits([&] { server.LowerWindow(client, frame); }), 0u) << "lower";
  EXPECT_EQ(visits([&] { server.DestroyWindow(client, frame); }), 0u) << "destroy";
  EXPECT_EQ(server.QueryPointer().window, root);

  // Control: a window mapped under the pointer is found, and finding it
  // does examine windows.
  WindowId under = server.CreateWindow(client, root, {500, 400, 100, 100}, 0,
                                       xproto::WindowClass::kInputOutput, false);
  EXPECT_GT(visits([&] { server.MapWindow(client, under); }), 0u);
  EXPECT_EQ(server.QueryPointer().window, under);
}

INSTANTIATE_TEST_SUITE_P(Windows, PointerWorkTest, ::testing::Values(100, 100000));

// Destroying a window with 10,000 children delivers every DestroyNotify in
// the order it always has: each child's subtree bottom-most first, in
// stacking order, then the window itself to its own and its parent's
// selectors.  The digest and count were taken from the implementation that
// erased each child from its dying parent's list one by one.
TEST(DestroySubtreeWork, TenThousandChildrenNotifyInStackingOrder) {
  xserver::Server server;
  xproto::ClientId owner = server.Connect();
  xproto::ClientId observer = server.Connect();
  WindowId root = server.RootWindow(0);
  WindowId top = CreateMapped(&server, owner, root, {0, 0, 300, 200});
  server.SelectInput(observer, root, xproto::kSubstructureNotifyMask);
  server.SelectInput(observer, top,
                     xproto::kStructureNotifyMask | xproto::kSubstructureNotifyMask);
  std::vector<WindowId> children;
  for (int i = 0; i < 10000; ++i) {
    WindowId child = CreateMapped(&server, owner, top, {i % 300, i % 200, 4, 4});
    server.SelectInput(observer, child, xproto::kStructureNotifyMask);
    children.push_back(child);
    if (i % 100 == 0) {
      for (int g = 0; g < 2; ++g) {
        WindowId grandchild = CreateMapped(&server, owner, child, {g, g, 2, 2});
        server.SelectInput(observer, grandchild, xproto::kStructureNotifyMask);
      }
    }
  }
  // Shuffle the stacking order deterministically.
  uint64_t state = 16;
  for (int i = 0; i < 300; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    WindowId pick = children[(state >> 33) % children.size()];
    if (i % 2 == 0) {
      server.RaiseWindow(owner, pick);
    } else {
      server.LowerWindow(owner, pick);
    }
  }
  while (server.NextEvent(observer).has_value()) {
  }

  ASSERT_TRUE(server.DestroyWindow(owner, top));
  uint64_t hash = 1469598103934665603ull;
  size_t count = 0;
  while (std::optional<xproto::Event> event = server.NextEvent(observer)) {
    const auto* destroyed = std::get_if<xproto::DestroyNotifyEvent>(&*event);
    if (destroyed == nullptr) {
      continue;  // The UnmapNotify that precedes destruction.
    }
    for (WindowId id : {destroyed->event_window, destroyed->window}) {
      hash = (hash ^ id) * 1099511628211ull;
    }
    ++count;
  }
  EXPECT_EQ(count, 10000u + 200u + 2u);
  EXPECT_EQ(hash, 1399408733807004796ull) << "DestroyNotify order changed";
}

}  // namespace
}  // namespace swm_test
