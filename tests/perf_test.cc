// Structural performance gates (`ctest -L perf`).  Each test pins how much
// work an operation does as a count — requests, events, reply bytes — at two
// population sizes, so a cost that grows with the window count fails here
// long before it shows up as a wall-clock regression.  No test reads a
// clock.
#include <gtest/gtest.h>

#include <memory>
#include <string>
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

}  // namespace
}  // namespace swm_test
