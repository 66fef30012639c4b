// Out-of-process client tests (docs/PROTOCOL.md "Out-of-process operation"):
// a WireHost accept loop serving real forked processes over a unix socket,
// the epoll readiness core moving every byte, wall-clock idle/stall
// deadlines, SIGKILL crash tolerance (typed close reason, window sweep,
// ledger charge, surviving clients unperturbed), the resource-configured
// transport limits, and the live-socket trace-replay cross-version gate.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/swm/wm.h"
#include "src/xlib/display.h"
#include "src/xproto/trace.h"
#include "src/xproto/transport.h"
#include "src/xproto/wire.h"
#include "src/xserver/connection.h"
#include "src/xserver/replay.h"
#include "src/xserver/server.h"
#include "src/xserver/wire_host.h"

namespace xserver {
namespace {

using xproto::WireClientEndpoint;
using xproto::WindowId;

// Abstract-namespace socket names: unique per process and per test, no
// filesystem residue even if a test aborts.
std::string UniqueSocketPath(const std::string& tag) {
  static int counter = 0;
  return "@swm-proc-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(++counter);
}

// Queues `request`, then drives the host loop until the client endpoint has
// decoded one reply frame (or 2s passes).
std::optional<xproto::Reply> HostRoundTrip(WireHost* host, WireClientEndpoint* ep,
                                           const xproto::Request& request,
                                           uint16_t* sequence_out = nullptr) {
  ep->QueueRequest(request);
  std::optional<xproto::Reply> out;
  host->RunUntil(
      [&]() {
        ep->Flush();
        ep->Poll();
        xproto::Reply reply;
        xproto::ParseError error;
        uint16_t sequence = 0;
        if (ep->NextReply(&reply, &error, &sequence)) {
          out = std::move(reply);
          if (sequence_out != nullptr) {
            *sequence_out = sequence;
          }
          return true;
        }
        return false;
      },
      /*budget_ms=*/2000);
  return out;
}

// The top-level windows `client` owns (these tests create nothing deeper).
std::vector<WindowId> OwnedTopLevels(const Server& server, xproto::ClientId client) {
  std::vector<WindowId> owned;
  std::optional<QueryTreeReply> tree = server.QueryTree(server.RootWindow(0));
  for (WindowId window : tree->children) {
    if (server.FindWindowForTest(window)->owner == client) {
      owned.push_back(window);
    }
  }
  return owned;
}

void FlushAll(WireClientEndpoint* ep) {
  for (int i = 0; i < 1000 && ep->queued_bytes() > 0; ++i) {
    ep->Flush();
  }
}

struct SyncPipe {
  int fds[2] = {-1, -1};
  SyncPipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~SyncPipe() {
    CloseRead();
    CloseWrite();
  }
  void CloseRead() {
    if (fds[0] >= 0) {
      ::close(fds[0]);
      fds[0] = -1;
    }
  }
  void CloseWrite() {
    if (fds[1] >= 0) {
      ::close(fds[1]);
      fds[1] = -1;
    }
  }
  // Child side: blocking.
  void Signal() {
    uint8_t b = 1;
    (void)!::write(fds[1], &b, 1);
  }
  bool AwaitBlocking() {
    uint8_t b = 0;
    return ::read(fds[0], &b, 1) == 1;
  }
  // Parent side: non-blocking probe, to run inside a host loop predicate.
  bool Poll() {
    int flags = ::fcntl(fds[0], F_GETFL);
    ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
    uint8_t b = 0;
    bool got = ::read(fds[0], &b, 1) == 1;
    ::fcntl(fds[0], F_SETFL, flags);
    return got;
  }
};

// ---- Forked xlib::Display over the listener --------------------------------

// Child exit codes, so a failure names the step that died.
enum ChildStatus : int {
  kChildOk = 0,
  kChildNoDisplay = 10,
  kChildBadScreens = 11,
  kChildCreateFailed = 12,
  kChildGeometryMismatch = 13,
  kChildAtomMismatch = 14,
  kChildPropertyMismatch = 15,
  kChildSawErrors = 16,
  kChildHadFallbacks = 17,
  kChildNoReplies = 18,
  kChildOversizedAccepted = 19,
  kChildRefusalMiscounted = 20,
  kChildDisconnected = 21,
};

TEST(WireHost, ForkedDisplayRoundTripsWithZeroFallbacks) {
  Server server;
  std::string path = UniqueSocketPath("forked");
  WireHost host(&server, path);
  ASSERT_TRUE(host.ok());

  SyncPipe ready;  // child -> parent: "windows created, inspect me"
  SyncPipe go;     // parent -> child: "inspected, exit now"

  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // ---- child process: a real out-of-process client ----
    ready.CloseRead();
    go.CloseWrite();
    ::setenv("SWM_SOCKET", path.c_str(), 1);
    std::unique_ptr<xlib::Display> display = xlib::Display::FromEnv("proc-child");
    if (display == nullptr || !display->Connected()) {
      ::_exit(kChildNoDisplay);
    }
    if (display->ScreenCount() < 1 || display->RootWindow(0) == xproto::kNone) {
      ::_exit(kChildBadScreens);
    }
    WindowId root = display->RootWindow(0);
    WindowId w1 = display->CreateWindow(root, {5, 5, 60, 40}, 2);
    WindowId w2 = display->CreateWindow(root, {70, 8, 20, 10});
    if (w1 == xproto::kNone || w2 == xproto::kNone || w1 == w2) {
      ::_exit(kChildCreateFailed);
    }
    display->MapWindow(w1);
    std::optional<xbase::Rect> geo = display->GetGeometry(w1);
    if (!geo.has_value() || *geo != (xbase::Rect{5, 5, 60, 40})) {
      ::_exit(kChildGeometryMismatch);
    }
    xproto::AtomId atom = display->InternAtom("SWM_PROC_TEST");
    if (atom == 0 ||
        display->GetAtomName(atom) != std::optional<std::string>("SWM_PROC_TEST")) {
      ::_exit(kChildAtomMismatch);
    }
    display->SetStringProperty(w1, "WM_NAME", "forked-client");
    if (display->GetStringProperty(w1, "WM_NAME") !=
        std::optional<std::string>("forked-client")) {
      ::_exit(kChildPropertyMismatch);
    }
    if (display->ErrorCount() != 0) {
      ::_exit(kChildSawErrors);
    }
    const xlib::Display::WireStats& stats = display->wire_stats();
    if (stats.wire_fallbacks != 0 || stats.reply_parse_errors != 0) {
      ::_exit(kChildHadFallbacks);
    }
    if (stats.wire_replies == 0) {
      ::_exit(kChildNoReplies);
    }
    ready.Signal();
    (void)go.AwaitBlocking();
    ::_exit(kChildOk);  // _exit closes the socket: a clean EOF disconnect.
  }

  // ---- parent process: serve the readiness loop ----
  ready.CloseWrite();
  go.CloseRead();
  ASSERT_TRUE(host.RunUntil([&]() { return ready.Poll(); }, /*budget_ms=*/10000))
      << "child never finished its session";

  // The child's whole session is live server state now.
  ASSERT_EQ(host.stats().accepted, 1u);
  ASSERT_EQ(host.connection_count(), 1u);
  xproto::ClientId client = host.clients()[0];
  EXPECT_TRUE(server.HasClient(client));
  std::vector<WindowId> owned = OwnedTopLevels(server, client);
  EXPECT_EQ(owned.size(), 2u);
  Connection* conn = host.FindConnection(client);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->state(), ConnectionState::kEstablished);
  EXPECT_GT(conn->stats().requests_dispatched, 0u);
  EXPECT_EQ(conn->stats().parse_errors, 0u);

  go.Signal();
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), kChildOk) << "child failed at step "
                                           << WEXITSTATUS(status);

  // EOF tears the session down: typed reason, windows swept, no mid-frame
  // residue from a clean exit.
  ASSERT_TRUE(host.RunUntil([&]() { return host.connection_count() == 0; },
                            /*budget_ms=*/5000));
  EXPECT_EQ(host.stats().closed, 1u);
  EXPECT_EQ(host.closed_with(CloseReason::kPeerClosed), 1u);
  EXPECT_EQ(host.stats().mid_frame_deaths, 0u);
  EXPECT_FALSE(server.HasClient(client));
  for (WindowId w : owned) {
    EXPECT_FALSE(server.WindowExists(w));
  }
}

// A remote CreateWindow learns its id from the QueryLastCreated reply: a
// refused create must come back kNone, and the next good create its own
// fresh id — never a window an earlier create made.
TEST(WireHost, ForkedDisplayCreateAfterBadParentGetsItsOwnId) {
  Server server;
  std::string path = UniqueSocketPath("lastcreated");
  WireHost host(&server, path);
  ASSERT_TRUE(host.ok());

  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);  // The BadWindow.
    xlib::Display display(path, "lastcreated-child");
    if (!display.Connected()) {
      ::_exit(kChildNoDisplay);
    }
    WindowId root = display.RootWindow(0);
    WindowId first = display.CreateWindow(root, {1, 2, 30, 20});
    WindowId bad = display.CreateWindow(/*parent=*/0x7ffffff0, {0, 0, 10, 10});
    WindowId second = display.CreateWindow(root, {40, 3, 11, 12});
    if (first == xproto::kNone || bad != xproto::kNone || second == xproto::kNone ||
        second <= first) {
      ::_exit(kChildCreateFailed);
    }
    if (display.GetGeometry(second) != std::optional<xbase::Rect>({40, 3, 11, 12})) {
      ::_exit(kChildGeometryMismatch);
    }
    if (display.ErrorCount() != 1) {
      ::_exit(kChildSawErrors);  // Exactly the bad parent's BadWindow.
    }
    ::_exit(kChildOk);
  }

  int status = 0;
  ASSERT_TRUE(host.RunUntil([&]() { return ::waitpid(child, &status, WNOHANG) == child; },
                            /*budget_ms=*/10000))
      << "child never finished its session";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), kChildOk) << "child failed at step "
                                           << WEXITSTATUS(status);
}

// An honest remote client asking for more than the server's decoder accepts
// is refused on its own side: a 20,000-byte ChangeProperty (a frame over
// kMaxRequestBytes) returns false without sending a byte or spending a
// sequence number, the connection stays open, and the next round trip is
// answered under the right sequence number.
TEST(WireHost, ForkedDisplayRefusesOversizedRequestAndStaysOpen) {
  Server server;
  std::string path = UniqueSocketPath("oversized");
  WireHost host(&server, path);
  ASSERT_TRUE(host.ok());

  SyncPipe ready;
  SyncPipe go;
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ready.CloseRead();
    go.CloseWrite();
    xlib::Display display(path, "oversized-child");
    if (!display.Connected()) {
      ::_exit(kChildNoDisplay);
    }
    WindowId window = display.CreateWindow(display.RootWindow(0), {1, 2, 30, 20});
    xproto::AtomId atom = display.InternAtom("SWM_BIG");
    if (window == xproto::kNone || atom == 0) {
      ::_exit(kChildCreateFailed);
    }
    uint64_t sent = display.RequestCount();
    if (display.ChangeProperty(window, atom, atom, 8, xserver::PropMode::kReplace,
                               std::vector<uint8_t>(20000, 0x5A))) {
      ::_exit(kChildOversizedAccepted);
    }
    if (display.RequestCount() != sent || display.wire_stats().refused_requests != 1) {
      ::_exit(kChildRefusalMiscounted);
    }
    if (!display.Connected()) {
      ::_exit(kChildDisconnected);
    }
    // The reply is matched by sequence number: had the refused request
    // spent one, client and server would disagree and this would time out.
    if (display.GetGeometry(window) != std::optional<xbase::Rect>({1, 2, 30, 20})) {
      ::_exit(kChildGeometryMismatch);
    }
    if (display.RequestCount() != sent + 1) {
      ::_exit(kChildRefusalMiscounted);
    }
    if (display.ErrorCount() != 0) {
      ::_exit(kChildSawErrors);
    }
    ready.Signal();
    (void)go.AwaitBlocking();
    ::_exit(kChildOk);
  }

  ready.CloseWrite();
  go.CloseRead();
  ASSERT_TRUE(host.RunUntil([&]() { return ready.Poll(); }, /*budget_ms=*/10000))
      << "child never finished its session";
  ASSERT_EQ(host.connection_count(), 1u);
  xproto::ClientId client = host.clients()[0];
  Connection* conn = host.FindConnection(client);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->state(), ConnectionState::kEstablished);
  EXPECT_EQ(conn->stats().parse_errors, 0u);
  EXPECT_EQ(server.ErrorCount(client), 0u);
  EXPECT_EQ(server.SequenceNumber(client), conn->stats().requests_dispatched);

  go.Signal();
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), kChildOk) << "child failed at step "
                                           << WEXITSTATUS(status);
}

// ---- SIGKILL mid-request ---------------------------------------------------

TEST(WireHost, SigkillMidRequestClosesOnlyVictim) {
  Server server;
  std::string path = UniqueSocketPath("sigkill");
  std::vector<std::pair<xproto::ClientId, int>> charges;
  WireHostOptions options;
  options.misbehavior_hook = [&](xproto::ClientId client, int cost) {
    charges.emplace_back(client, cost);
  };
  WireHost host(&server, path, std::move(options));
  ASSERT_TRUE(host.ok());
  WindowId root = server.RootWindow(0);

  // The survivor: a parent-side endpoint through the same listener.
  std::unique_ptr<xproto::ByteChannel> survivor_channel = xproto::ConnectSocket(path);
  ASSERT_NE(survivor_channel, nullptr);
  WireClientEndpoint survivor(std::move(survivor_channel));
  ASSERT_TRUE(host.RunUntil([&]() { return host.stats().accepted == 1; }, 2000));
  xproto::ClientId survivor_id = host.clients()[0];

  survivor.QueueRequest(xproto::CreateWindowRequest{.parent = root,
                                                    .geometry = {0, 0, 64, 64}});
  std::optional<xproto::Reply> before =
      HostRoundTrip(&host, &survivor, xproto::GetGeometryRequest{.window = root});
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(OwnedTopLevels(server, survivor_id).size(), 1u);
  WindowId survivor_win = OwnedTopLevels(server, survivor_id)[0];

  // The victim: a forked process killed with a partial frame on the wire.
  pid_t victim_pid = ::fork();
  ASSERT_GE(victim_pid, 0);
  if (victim_pid == 0) {
    std::unique_ptr<xproto::ByteChannel> channel = xproto::ConnectSocket(path);
    if (channel == nullptr) {
      ::_exit(1);
    }
    WireClientEndpoint ep(std::move(channel));
    ep.QueueRequest(xproto::CreateWindowRequest{.parent = root,
                                                .geometry = {9, 9, 30, 20}});
    FlushAll(&ep);
    // Half a MapWindow request, then death: the classic mid-request SIGKILL.
    xproto::WireWriter w;
    xproto::EncodeRequest(xproto::MapWindowRequest{.window = 1}, &w);
    std::vector<uint8_t> frame = w.Take();
    ep.QueueBytes(std::span<const uint8_t>(frame).first(frame.size() / 2));
    FlushAll(&ep);
    ::raise(SIGKILL);
    ::_exit(2);  // Unreachable.
  }

  // Serve until the victim's connection has come and gone.
  ASSERT_TRUE(host.RunUntil([&]() { return host.stats().accepted == 2; }, 5000));
  ASSERT_TRUE(
      host.RunUntil([&]() { return host.connection_count() == 1; }, 5000))
      << "victim connection never reaped";
  int status = 0;
  ASSERT_EQ(::waitpid(victim_pid, &status, 0), victim_pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The victim died mid-frame: typed reason, latched flag, ledger charge,
  // and its windows (including the one from the completed request) swept.
  EXPECT_EQ(host.closed_with(CloseReason::kPeerClosed), 1u);
  EXPECT_EQ(host.stats().mid_frame_deaths, 1u);
  bool victim_charged = false;
  for (const auto& [client, cost] : charges) {
    if (client != survivor_id && cost > 0) {
      victim_charged = true;
    }
  }
  EXPECT_TRUE(victim_charged) << "mid-frame death must charge the ledger";
  EXPECT_EQ(OwnedTopLevels(server, survivor_id).size(), 1u);
  std::vector<WindowId> root_children = server.QueryTree(root)->children;
  EXPECT_EQ(root_children, std::vector<WindowId>{survivor_win});

  // The survivor never notices: same query, byte-equal payload, sequence
  // space intact, no errors on its stream.
  uint16_t sequence = 0;
  std::optional<xproto::Reply> after = HostRoundTrip(
      &host, &survivor, xproto::GetGeometryRequest{.window = root}, &sequence);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(*after == *before) << "survivor reply payload changed";
  EXPECT_EQ(sequence, server.SequenceNumber(survivor_id));
  Connection* survivor_conn = host.FindConnection(survivor_id);
  ASSERT_NE(survivor_conn, nullptr);
  EXPECT_EQ(survivor_conn->stats().parse_errors, 0u);
  EXPECT_EQ(server.ErrorCount(survivor_id), 0u);
}

// ---- Wall-clock deadlines --------------------------------------------------

TEST(WireHost, ReadIdleDeadlineExpiresSilentConnection) {
  Server server;
  WireHostOptions options;
  options.limits.read_idle_ms = 40;
  int charges = 0;
  options.misbehavior_hook = [&](xproto::ClientId, int) { ++charges; };
  WireHost host(&server, UniqueSocketPath("idle"), std::move(options));
  ASSERT_TRUE(host.ok());

  std::unique_ptr<xproto::ByteChannel> channel =
      xproto::ConnectSocket(host.socket_path());
  ASSERT_NE(channel, nullptr);
  WireClientEndpoint ep(std::move(channel));
  ASSERT_TRUE(host.RunUntil([&]() { return host.stats().accepted == 1; }, 2000));

  // Say nothing.  The timerfd wheel, not a pump counter, must close us.
  ASSERT_TRUE(host.RunUntil([&]() { return host.connection_count() == 0; }, 5000));
  EXPECT_EQ(host.stats().idle_expirations, 1u);
  EXPECT_EQ(host.closed_with(CloseReason::kReadIdle), 1u);
  EXPECT_GT(charges, 0) << "deadline expiry is misbehavior";
  // The server side sees a closed socket now.
  ep.Poll();
  EXPECT_FALSE(ep.open());
}

TEST(WireHost, ActiveConnectionOutlivesIdleDeadline) {
  Server server;
  WireHostOptions options;
  options.limits.read_idle_ms = 120;
  WireHost host(&server, UniqueSocketPath("busy"), std::move(options));
  ASSERT_TRUE(host.ok());
  std::unique_ptr<xproto::ByteChannel> channel =
      xproto::ConnectSocket(host.socket_path());
  ASSERT_NE(channel, nullptr);
  WireClientEndpoint ep(std::move(channel));
  ASSERT_TRUE(host.RunUntil([&]() { return host.stats().accepted == 1; }, 2000));

  // Keep trickling requests for ~3 deadline windows; each inbound byte
  // re-arms the clock, so the connection must stay up throughout.
  int64_t start = xbase::EventLoop::NowMs();
  while (xbase::EventLoop::NowMs() - start < 360) {
    std::optional<xproto::Reply> reply = HostRoundTrip(
        &host, &ep, xproto::GetGeometryRequest{.window = server.RootWindow(0)});
    ASSERT_TRUE(reply.has_value());
    host.PollOnce(20);
  }
  EXPECT_EQ(host.connection_count(), 1u);
  EXPECT_EQ(host.stats().idle_expirations, 0u);
}

TEST(WireHost, WriteStallDeadlineExpiresUnreadPeer) {
  Server server;
  // Enough reply volume to pin both kernel buffers, and a high-water mark
  // raised out of the way so only the wall-clock path can close us.
  xlib::Display filler(&server, "filler");
  for (int i = 0; i < 400; ++i) {
    ASSERT_NE(filler.CreateWindow(server.RootWindow(0), {0, 0, 4, 4}),
              xproto::kNone);
  }
  WireHostOptions options;
  options.limits.write_stall_ms = 40;
  options.limits.write_queue_high_water = 64 * 1024 * 1024;
  options.limits.stall_pump_limit = 1 << 30;
  WireHost host(&server, UniqueSocketPath("stall"), std::move(options));
  ASSERT_TRUE(host.ok());

  std::unique_ptr<xproto::ByteChannel> channel =
      xproto::ConnectSocket(host.socket_path());
  ASSERT_NE(channel, nullptr);
  WireClientEndpoint ep(std::move(channel));
  // ~600 QueryTree replies of ~1.6KB each, and a client that never reads.
  for (int i = 0; i < 600; ++i) {
    ep.QueueRequest(xproto::QueryTreeRequest{.window = server.RootWindow(0)});
  }
  // The 4800 request bytes fit in the kernel buffer without the host loop
  // running at all, so wait for the accept explicitly — otherwise
  // `connection_count() == 0` below is trivially true before the session
  // even exists.
  ASSERT_TRUE(host.RunUntil(
      [&]() {
        ep.Flush();
        return host.connection_count() == 1 && ep.queued_bytes() == 0;
      },
      2000));

  ASSERT_TRUE(host.RunUntil([&]() { return host.connection_count() == 0; }, 5000))
      << "stalled connection never expired";
  EXPECT_EQ(host.stats().stall_expirations, 1u);
  EXPECT_EQ(host.closed_with(CloseReason::kWriteStalled), 1u);
}

// ---- Resource-configured limits (swm.transport.*) --------------------------

TEST(TransportResources, DefaultsDocumentedInHeader) {
  Server server;
  swm::WindowManager wm(&server, {});
  ConnectionLimits limits = wm.TransportLimits();
  EXPECT_EQ(limits.read_idle_ms, 0) << "idle deadline defaults to disabled";
  EXPECT_EQ(limits.write_stall_ms, 5000);
}

TEST(TransportResources, ResourceDatabaseOverridesDeadlines) {
  Server server;
  swm::WindowManager::Options options;
  options.resources =
      "swm.transport.idleMs: 250\n"
      "swm.transport.stallMs:  90\n";
  swm::WindowManager wm(&server, options);
  ConnectionLimits limits = wm.TransportLimits();
  EXPECT_EQ(limits.read_idle_ms, 250);
  EXPECT_EQ(limits.write_stall_ms, 90);
}

TEST(TransportResources, MalformedValuesFallBackToDefaults) {
  Server server;
  swm::WindowManager::Options options;
  options.resources =
      "swm.transport.idleMs: soon\n"
      "swm.transport.stallMs: -4\n";
  swm::WindowManager wm(&server, options);
  ConnectionLimits limits = wm.TransportLimits();
  EXPECT_EQ(limits.read_idle_ms, 0);
  EXPECT_EQ(limits.write_stall_ms, 5000);
}

// ---- FromEnv ---------------------------------------------------------------

TEST(DisplayRemote, FromEnvWithoutSocketReturnsNull) {
  ::unsetenv("SWM_SOCKET");
  EXPECT_EQ(xlib::Display::FromEnv(), nullptr);
  ::setenv("SWM_SOCKET", UniqueSocketPath("nowhere").c_str(), 1);
  EXPECT_EQ(xlib::Display::FromEnv(), nullptr) << "no listener behind the path";
  ::unsetenv("SWM_SOCKET");
}

TEST(WireHost, BindFailureLeavesHostInert) {
  Server server;
  std::string path = UniqueSocketPath("dup");
  WireHost first(&server, path);
  ASSERT_TRUE(first.ok());
  WireHost second(&server, path);  // Abstract name already taken.
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.PollOnce(0), 0);
}

// ---- Live-socket trace replay (the cross-version gate) ---------------------

void RunRecordedSession(Server* server) {
  xlib::Display a(server, "rec-a");
  a.set_wire_mode(true);
  xlib::Display b(server, "rec-b");
  b.set_wire_mode(true);
  WindowId root = server->RootWindow(0);
  WindowId wa = a.CreateWindow(root, {4, 4, 50, 30}, 1);
  a.MapWindow(wa);
  a.SetStringProperty(wa, "WM_NAME", "socket-replay");
  WindowId wb = b.CreateWindow(root, {60, 10, 25, 12});
  b.MapWindow(wb);
  b.MoveWindow(wb, {58, 12});
  (void)a.GetGeometry(wa);
  (void)a.QueryTree(root);
  (void)a.GetStringProperty(wa, "WM_NAME");
  (void)b.InternAtom("WM_PROTOCOLS");
  (void)b.GetWindowAttributes(wb);
  b.DestroyWindow(wb);
  (void)a.QueryTree(root);
}

TEST(TraceReplay, LiveSocketReplayMatchesDirectReplay) {
  Server recorded;
  xproto::TraceRecorder recorder;
  recorded.SetTraceRecorder(&recorder);
  RunRecordedSession(&recorded);
  recorded.SetTraceRecorder(nullptr);
  recorder.RecordExpect(recorded.TotalRequests(), recorded.render_stats().draw_ops,
                        static_cast<uint64_t>(recorded.render_stats().pixels_drawn));
  xproto::Trace trace = recorder.Take();
  ASSERT_FALSE(trace.records.empty());

  Server direct;
  ReplayResult rd = ReplayTrace(&direct, trace);
  ASSERT_TRUE(rd.expectations_met) << rd.mismatch;

  // Same trace, but every traced client rides the full out-of-process path:
  // listener accept, epoll readiness, framed reads, flushed replies.
  ReplayOptions socket_options;
  socket_options.listen_socket = UniqueSocketPath("replay");
  Server via_socket;
  ReplayResult rs = ReplayTrace(&via_socket, trace, socket_options);

  EXPECT_TRUE(rs.expectations_met) << rs.mismatch;
  EXPECT_EQ(rs.parse_errors, 0u);
  EXPECT_EQ(rs.requests_dispatched, rd.requests_dispatched);
  EXPECT_TRUE(rs.replies_match) << rs.reply_mismatch;
  EXPECT_GT(rs.recorded_replies, 0u) << "the session must exercise replies";
  EXPECT_EQ(FingerprintServer(via_socket), FingerprintServer(direct));
  EXPECT_EQ(FingerprintServer(via_socket), FingerprintServer(recorded));
}

}  // namespace
}  // namespace xserver
