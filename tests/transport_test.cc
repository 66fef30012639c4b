// Duplex transport tests (docs/PROTOCOL.md, "Connection lifecycle"):
// frame reassembly across arbitrary short reads, the socketpair round trip
// (request bytes in, reply/error/event frames out), connection lifecycle
// states and close reasons, backpressure charging the misbehavior ledger,
// and the kill-a-client-mid-request teardown guarantees — the dead client's
// windows are swept, every other client's sequence space is untouched.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/swm/quarantine.h"
#include "src/xlib/display.h"
#include "src/xproto/transport.h"
#include "src/xproto/wire.h"
#include "src/xserver/connection.h"
#include "src/xserver/server.h"

namespace xserver {
namespace {

using xproto::ByteChannel;
using xproto::ChannelPair;
using xproto::FrameReassembler;
using xproto::FrameStream;
using xproto::IoStatus;
using xproto::MakePipePair;
using xproto::MakeSocketPair;
using xproto::Reply;
using xproto::Request;
using xproto::WireClientEndpoint;
using xproto::WindowId;

std::vector<uint8_t> EncodeAll(const std::vector<Request>& requests) {
  xproto::WireWriter w;
  for (const Request& r : requests) {
    xproto::EncodeRequest(r, &w);
  }
  return w.Take();
}

// ---- Frame reassembly -------------------------------------------------------

TEST(FrameReassembler, ReassemblesRequestStreamFedByteByByte) {
  std::vector<Request> sent = {
      xproto::CreateWindowRequest{.parent = 1, .geometry = {0, 0, 100, 80}},
      xproto::MapWindowRequest{.window = 7},
      xproto::InternAtomRequest{.name = "WM_CLASS"},
      xproto::GetGeometryRequest{.window = 7},
  };
  std::vector<uint8_t> stream = EncodeAll(sent);

  FrameReassembler reasm(FrameStream::kRequests);
  std::vector<std::vector<uint8_t>> frames;
  for (uint8_t byte : stream) {
    ASSERT_TRUE(reasm.Feed({&byte, 1}));
    while (std::optional<std::vector<uint8_t>> frame = reasm.NextFrame()) {
      frames.push_back(std::move(*frame));
    }
  }
  ASSERT_EQ(frames.size(), sent.size());
  size_t offset = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    // Each extracted frame is byte-identical to its slice of the stream.
    ASSERT_EQ(frames[i],
              std::vector<uint8_t>(stream.begin() + static_cast<ptrdiff_t>(offset),
                                   stream.begin() + static_cast<ptrdiff_t>(offset) +
                                       static_cast<ptrdiff_t>(frames[i].size())));
    Request decoded;
    xproto::ParseError error;
    ASSERT_GT(xproto::DecodeRequest(frames[i], &decoded, &error), 0u);
    EXPECT_TRUE(decoded == sent[i]);
    offset += frames[i].size();
  }
  EXPECT_EQ(offset, stream.size());
  EXPECT_EQ(reasm.buffered_bytes(), 0u);
}

TEST(FrameReassembler, ReassemblesServerStreamAcrossSplits) {
  // Server→client stream: an error frame, a reply frame, an event frame.
  xproto::WireWriter w;
  xproto::EncodeError({.code = xproto::ErrorCode::kBadWindow,
                       .request = xproto::RequestCode::kMapWindow,
                       .resource_id = 9,
                       .sequence = 3},
                      &w);
  xproto::EncodeReply(xproto::AtomReply{.atom = 17}, 4, &w);
  xproto::EncodeEvent(xproto::MapNotifyEvent{.event_window = 5, .window = 5}, 5, &w);
  std::vector<uint8_t> stream = w.Take();

  // Feed in awkward splits: 1, 7, 31, rest.
  FrameReassembler reasm(FrameStream::kServerToClient);
  size_t cuts[] = {1, 7, 31, stream.size()};
  size_t prev = 0;
  std::vector<std::vector<uint8_t>> frames;
  for (size_t cut : cuts) {
    ASSERT_TRUE(reasm.Feed(std::span(stream.data() + prev, cut - prev)));
    while (std::optional<std::vector<uint8_t>> frame = reasm.NextFrame()) {
      frames.push_back(std::move(*frame));
    }
    prev = cut;
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0][0], 0);  // Error.
  EXPECT_EQ(frames[1][0], 1);  // Reply.
  EXPECT_GE(frames[2][0], 2);  // Event.
}

TEST(FrameReassembler, LengthLieSurrendersHeaderInsteadOfHanging) {
  // A request frame whose length field says zero would never complete; the
  // reassembler must surrender the header so the decoder can reject it.
  std::vector<uint8_t> lie = {8, 0, 0, 0, 1, 0, 0, 0};
  FrameReassembler reasm(FrameStream::kRequests);
  ASSERT_TRUE(reasm.Feed(lie));
  std::optional<std::vector<uint8_t>> frame = reasm.NextFrame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size(), 4u);
  Request decoded;
  xproto::ParseError error;
  EXPECT_EQ(xproto::DecodeRequest(*frame, &decoded, &error), 0u);
}

TEST(FrameReassembler, UnboundedPartialFrameTripsOverflow) {
  // A frame header claiming kMaxRequestBytes, then endless filler that never
  // completes it within the buffer cap.
  FrameReassembler reasm(FrameStream::kRequests, /*buffer_cap=*/256);
  std::vector<uint8_t> head = {10, 0,
                               static_cast<uint8_t>((xproto::kMaxRequestBytes / 4) & 0xFF),
                               static_cast<uint8_t>((xproto::kMaxRequestBytes / 4) >> 8)};
  ASSERT_TRUE(reasm.Feed(head));
  std::vector<uint8_t> filler(512, 0xAA);
  EXPECT_FALSE(reasm.Feed(filler));
  EXPECT_TRUE(reasm.overflowed());
}

// ---- Byte channels ----------------------------------------------------------

void RoundTripBytesThrough(ChannelPair pair) {
  ASSERT_NE(pair.client, nullptr);
  ASSERT_NE(pair.server, nullptr);
  std::vector<uint8_t> payload(1000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  size_t written = 0;
  ASSERT_EQ(pair.client->Write(payload, &written), IoStatus::kOk);
  ASSERT_EQ(written, payload.size());
  std::vector<uint8_t> got;
  uint8_t buf[256];
  while (got.size() < payload.size()) {
    size_t n = 0;
    IoStatus s = pair.server->Read(buf, sizeof(buf), &n);
    ASSERT_NE(s, IoStatus::kError);
    got.insert(got.end(), buf, buf + n);
    if (s == IoStatus::kWouldBlock && n == 0) {
      break;
    }
  }
  EXPECT_EQ(got, payload);
  // Close the client end: the server end sees EOF.
  pair.client->Close();
  size_t n = 0;
  EXPECT_EQ(pair.server->Read(buf, sizeof(buf), &n), IoStatus::kClosed);
}

TEST(ByteChannel, SocketPairRoundTripAndEof) { RoundTripBytesThrough(MakeSocketPair()); }

TEST(ByteChannel, PipePairRoundTripAndEof) { RoundTripBytesThrough(MakePipePair()); }

// ---- Connection round trip --------------------------------------------------

// Moves bytes both ways until the pair goes quiescent.
void PumpPair(Connection* conn, WireClientEndpoint* ep, int spins = 16) {
  for (int i = 0; i < spins; ++i) {
    ep->Flush();
    conn->Pump();
    ep->Poll();
    if (ep->queued_bytes() == 0 && conn->outbound_queued() == 0) {
      return;
    }
  }
}

TEST(Connection, QueryRoundTripOverSocketpair) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server), "remote-host");
  WireClientEndpoint ep(std::move(pair.client));

  conn.Establish();
  EXPECT_EQ(conn.state(), ConnectionState::kEstablished);
  ASSERT_NE(conn.client(), 0u);

  // Create + map a window, then query it back — all in bytes.
  ep.QueueRequest(xproto::CreateWindowRequest{.parent = server.RootWindow(0),
                                              .geometry = {10, 20, 300, 200},
                                              .border_width = 2});
  PumpPair(&conn, &ep);
  // CreateWindow has no reply; learn the id via QueryTree on the root.
  ep.QueueRequest(xproto::QueryTreeRequest{.window = server.RootWindow(0)});
  PumpPair(&conn, &ep);
  Reply reply;
  xproto::ParseError error;
  ASSERT_TRUE(ep.NextReply(&reply, &error)) << xproto::ParseErrorText(error);
  const auto* tree = std::get_if<xproto::TreeReply>(&reply);
  ASSERT_NE(tree, nullptr);
  ASSERT_EQ(tree->children.size(), 1u);
  WindowId window = tree->children[0];

  ep.QueueRequest(xproto::GetGeometryRequest{.window = window});
  PumpPair(&conn, &ep);
  uint16_t sequence = 0;
  ASSERT_TRUE(ep.NextReply(&reply, &error, &sequence));
  const auto* geo = std::get_if<xproto::GeometryReply>(&reply);
  ASSERT_NE(geo, nullptr);
  EXPECT_EQ(geo->geometry, (xbase::Rect{10, 20, 300, 200}));
  EXPECT_EQ(geo->border_width, 2);
  // Queries occupy sequence slots like any other request.
  EXPECT_EQ(sequence, server.SequenceNumber(conn.client()));

  EXPECT_GT(conn.stats().replies_queued, 0u);
  EXPECT_EQ(conn.stats().parse_errors, 0u);

  conn.BeginDrain();
  PumpPair(&conn, &ep);
  conn.Pump();
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kGracefulDrain);
}

TEST(Connection, ErrorsTravelTheWire) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server));
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();

  ep.QueueRequest(xproto::MapWindowRequest{.window = 0xDEAD});
  PumpPair(&conn, &ep);
  std::optional<std::vector<uint8_t>> frame = ep.NextFrame();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ((*frame)[0], 0) << "error frames start with a zero byte";
  xproto::XError xerr;
  xproto::ParseError perr;
  ASSERT_GT(xproto::DecodeError(*frame, &xerr, &perr), 0u);
  EXPECT_EQ(xerr.code, xproto::ErrorCode::kBadWindow);
  EXPECT_EQ(xerr.resource_id, 0xDEADu);
  EXPECT_EQ(conn.stats().errors_queued, 1u);
}

TEST(Connection, EventsTravelTheWire) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server));
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();

  // Create a window and select PropertyChange on it, all over the wire.
  ep.QueueRequest(xproto::CreateWindowRequest{.parent = server.RootWindow(0),
                                              .geometry = {0, 0, 50, 50}});
  ep.QueueRequest(xproto::QueryTreeRequest{.window = server.RootWindow(0)});
  PumpPair(&conn, &ep);
  Reply reply;
  xproto::ParseError error;
  ASSERT_TRUE(ep.NextReply(&reply, &error));
  WindowId window = std::get<xproto::TreeReply>(reply).children.at(0);
  ep.QueueRequest(
      xproto::SelectInputRequest{.window = window, .event_mask = xproto::kPropertyChangeMask});
  PumpPair(&conn, &ep);

  // A direct client touches a property; the event reaches us as a frame.
  xlib::Display other(&server, "localhost");
  ASSERT_TRUE(other.SetStringProperty(window, "WM_NAME", "hello"));
  PumpPair(&conn, &ep);

  bool saw_property_notify = false;
  while (std::optional<std::vector<uint8_t>> frame = ep.NextFrame()) {
    if ((*frame)[0] < 2) {
      continue;
    }
    xproto::Event event;
    uint16_t seq = 0;
    ASSERT_GT(xproto::DecodeEvent(*frame, &event, &error, &seq), 0u)
        << xproto::ParseErrorText(error);
    if (const auto* pn = std::get_if<xproto::PropertyNotifyEvent>(&event)) {
      EXPECT_EQ(pn->window, window);
      saw_property_notify = true;
    }
  }
  EXPECT_TRUE(saw_property_notify);
  EXPECT_GT(conn.stats().events_queued, 0u);
}

TEST(Connection, ProtocolErrorClosesAndChargesLedger) {
  Server server;
  swm::MisbehaviorLedger ledger;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server));
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();
  conn.SetMisbehaviorHook(
      [&ledger](xproto::ClientId client, int cost) { ledger.Charge(client, cost); });

  std::vector<uint8_t> garbage = {99, 0, 2, 0, 1, 2, 3, 4};  // Unknown opcode.
  ep.QueueBytes(garbage);
  PumpPair(&conn, &ep);
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kProtocolError);
  EXPECT_GT(conn.stats().parse_errors, 0u);
  // The X error for the rejected frame was flushed before teardown.
  ep.Poll();
  std::optional<std::vector<uint8_t>> frame = ep.NextFrame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ((*frame)[0], 0);
}

TEST(Connection, WriteStallChargesLedgerAndCloses) {
  Server server;
  swm::QuarantinePolicy policy;
  policy.budget = 24;  // Two charges at cost 12 quarantine the client.
  swm::MisbehaviorLedger ledger(policy);

  // Tiny kernel buffers + tiny high-water mark so backpressure is immediate.
  ChannelPair pair = MakeSocketPair(/*buffer_bytes=*/2048);
  ConnectionLimits limits;
  limits.write_queue_high_water = 512;
  limits.stall_pump_limit = 3;
  Connection conn(&server, std::move(pair.server), "stalled-peer", limits);
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();
  bool quarantined = false;
  conn.SetMisbehaviorHook([&](xproto::ClientId client, int cost) {
    quarantined = ledger.Charge(client, cost) || quarantined;
  });

  // Pile up a large property, then query it repeatedly without ever reading
  // the replies: the kernel buffer fills, the outbound queue pins over the
  // high-water mark, and the peer is declared stalled.
  ep.QueueRequest(xproto::CreateWindowRequest{.parent = server.RootWindow(0),
                                              .geometry = {0, 0, 10, 10}});
  ep.QueueRequest(xproto::QueryTreeRequest{.window = server.RootWindow(0)});
  ep.Flush();
  conn.Pump();
  xproto::ClientId client = conn.client();
  WindowId window = server.QueryTree(server.RootWindow(0))->children.at(0);
  xproto::AtomId prop = server.InternAtom("BIG");
  std::vector<uint8_t> big(4096, 0x5A);
  server.ChangeProperty(client, window, prop, server.InternAtom("STRING"), 8,
                        PropMode::kReplace, big);

  for (int i = 0; i < 32 && conn.state() != ConnectionState::kClosed; ++i) {
    ep.QueueRequest(xproto::GetPropertyRequest{.window = window, .property = prop});
    ep.Flush();
    conn.Pump();  // Client never Polls: replies have nowhere to go.
  }
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kWriteStalled);
  EXPECT_TRUE(quarantined);
  EXPECT_TRUE(ledger.IsQuarantined(client));
  EXPECT_GT(conn.stats().write_queue_peak, limits.write_queue_high_water);
}

TEST(Connection, ReadIdleDeadlineClosesQuietPeer) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  ConnectionLimits limits;
  limits.read_idle_limit = 5;
  Connection conn(&server, std::move(pair.server), "quiet-peer", limits);
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();
  int charges = 0;
  conn.SetMisbehaviorHook([&](xproto::ClientId, int) { ++charges; });
  for (int i = 0; i < 8 && conn.state() != ConnectionState::kClosed; ++i) {
    conn.Pump();
  }
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kReadIdle);
  EXPECT_EQ(charges, 1);
}

// The acceptance-critical teardown test: a client killed mid-request frame.
TEST(Connection, KillClientMidRequestSweepsWindowsAndSparesOthers) {
  Server server;

  // The survivor: a direct-call client with a window and a sequence history.
  xlib::Display survivor(&server, "survivor");
  WindowId survivor_win =
      survivor.CreateWindow(server.RootWindow(0), {0, 0, 64, 64});
  ASSERT_TRUE(survivor.MapWindow(survivor_win));
  uint64_t survivor_seq = survivor.RequestCount();
  uint64_t survivor_errors = survivor.ErrorCount();

  // The victim: a framed connection that dies halfway through a request.
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server), "victim");
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();
  xproto::ClientId victim = conn.client();

  ep.QueueRequest(xproto::CreateWindowRequest{.parent = server.RootWindow(0),
                                              .geometry = {5, 5, 40, 40}});
  PumpPair(&conn, &ep);
  ASSERT_EQ(server.QueryTree(server.RootWindow(0))->children.size(), 2u);
  WindowId victim_win = server.QueryTree(server.RootWindow(0))->children.back();
  ASSERT_NE(victim_win, survivor_win);

  // Queue a full MapWindow plus a CreateWindow that will be cut mid-frame.
  ep.QueueRequest(xproto::MapWindowRequest{.window = victim_win});
  ep.QueueRequest(xproto::CreateWindowRequest{.parent = server.RootWindow(0),
                                              .geometry = {1, 1, 10, 10}});
  ep.CloseMidFrame();
  for (int i = 0; i < 8 && conn.state() != ConnectionState::kClosed; ++i) {
    conn.Pump();
  }
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kPeerClosed);

  // The victim's windows are gone; the torn frame was never dispatched.
  EXPECT_FALSE(server.WindowExists(victim_win));
  EXPECT_FALSE(server.HasClient(victim));
  ASSERT_EQ(server.QueryTree(server.RootWindow(0))->children.size(), 1u);

  // The survivor is untouched: window intact, sequence space unperturbed,
  // no stray errors, and new requests keep working.
  EXPECT_TRUE(server.WindowExists(survivor_win));
  EXPECT_EQ(survivor.RequestCount(), survivor_seq);
  EXPECT_EQ(survivor.ErrorCount(), survivor_errors);
  ASSERT_TRUE(survivor.MoveWindow(survivor_win, {3, 4}));
  EXPECT_EQ(survivor.RequestCount(), survivor_seq + 1);
  EXPECT_EQ(survivor.GetGeometry(survivor_win)->x, 3);
}

// ---- Dead-peer writes ------------------------------------------------------

// A peer that stops *receiving* (SHUT_RD) without closing its write side is
// only discoverable on the write path: the reply flush hits EPIPE.  That is
// a transport error on an established connection — not a crash, not a
// busy-loop, and (because SIGPIPE is suppressed) not process death.
TEST(Connection, EpipeOnReplyFlushClosesWithTransportError) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server), "dead-reader");
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();

  // The request reaches the server-side buffer before the receive side is
  // shut down; only the reply direction is broken.
  ep.QueueRequest(xproto::GetGeometryRequest{.window = server.RootWindow(0)});
  ep.Flush();
  ASSERT_EQ(::shutdown(ep.PollFd(), SHUT_RD), 0);

  for (int i = 0; i < 8 && conn.state() != ConnectionState::kClosed; ++i) {
    conn.Pump();
  }
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kTransportError)
      << "a write-side death discovery is a transport error, not an EOF";
  EXPECT_GT(conn.stats().requests_dispatched, 0u)
      << "the request itself was intact and must have been dispatched";
  // Surviving to this line IS the SIGPIPE regression test: the EPIPE write
  // above would have killed the process under the default disposition.
  struct sigaction current;
  ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_IGN)
      << "transport channel creation must suppress SIGPIPE process-wide";
}

// Same discovery, mid-drain: EOF was already read (so the close reason is
// the drain's kPeerClosed), and the undeliverable replies are discarded
// without spinning on the dead socket.
TEST(Connection, EpipeDuringDrainKeepsPeerClosedReason) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server), "dying-reader");
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();

  ep.QueueRequest(xproto::GetGeometryRequest{.window = server.RootWindow(0)});
  ep.Flush();
  // Full close: the server reads EOF and drains, but the queued reply can
  // no longer be delivered.
  ep.Close();
  uint64_t pumps_before = conn.stats().pumps;
  for (int i = 0; i < 8 && conn.state() != ConnectionState::kClosed; ++i) {
    conn.Pump();
  }
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kPeerClosed);
  EXPECT_LE(conn.stats().pumps - pumps_before, 8u) << "no busy-loop on EPIPE";
  // Closed is terminal: further pumps are cheap no-ops.
  EXPECT_EQ(conn.Pump(), ConnectionState::kClosed);
}

// ---- Display duplex equivalence --------------------------------------------

// Every query a wire-mode Display answers over the reply codec must agree
// with the direct-call answer, with zero wire fallbacks along the way.
TEST(DisplayDuplex, WireModeQueriesMatchDirectCalls) {
  Server server;
  xlib::Display direct(&server, "direct");
  xlib::Display wired(&server, "wired");
  wired.set_wire_mode(true);

  WindowId parent = wired.CreateWindow(server.RootWindow(0), {10, 10, 200, 150}, 3);
  ASSERT_NE(parent, xproto::kNone);
  WindowId child = wired.CreateWindow(parent, {20, 30, 50, 40});
  ASSERT_NE(child, xproto::kNone);
  ASSERT_TRUE(wired.MapWindow(parent));
  ASSERT_TRUE(wired.MapWindow(child));
  ASSERT_TRUE(wired.SetStringProperty(parent, "WM_NAME", "duplex"));

  EXPECT_EQ(wired.GetGeometry(parent), direct.GetGeometry(parent));
  EXPECT_EQ(wired.GetGeometry(child), direct.GetGeometry(child));

  auto wired_attrs = wired.GetWindowAttributes(parent);
  auto direct_attrs = direct.GetWindowAttributes(parent);
  ASSERT_TRUE(wired_attrs.has_value());
  ASSERT_TRUE(direct_attrs.has_value());
  EXPECT_EQ(wired_attrs->map_state, direct_attrs->map_state);
  EXPECT_EQ(wired_attrs->border_width, direct_attrs->border_width);
  EXPECT_EQ(wired_attrs->all_event_masks, direct_attrs->all_event_masks);

  auto wired_tree = wired.QueryTree(parent);
  auto direct_tree = direct.QueryTree(parent);
  ASSERT_TRUE(wired_tree.has_value());
  ASSERT_TRUE(direct_tree.has_value());
  EXPECT_EQ(wired_tree->root, direct_tree->root);
  EXPECT_EQ(wired_tree->parent, direct_tree->parent);
  EXPECT_EQ(wired_tree->children, direct_tree->children);

  EXPECT_EQ(wired.TranslateCoordinates(child, server.RootWindow(0), {0, 0}),
            direct.TranslateCoordinates(child, server.RootWindow(0), {0, 0}));

  EXPECT_EQ(wired.InternAtom("WM_NAME"), direct.InternAtom("WM_NAME"));
  EXPECT_EQ(wired.GetAtomName(wired.InternAtom("WM_NAME")),
            direct.GetAtomName(direct.InternAtom("WM_NAME")));
  EXPECT_EQ(wired.GetStringProperty(parent, "WM_NAME"),
            direct.GetStringProperty(parent, "WM_NAME"));
  EXPECT_EQ(wired.GetStringProperty(parent, "MISSING"), std::nullopt);

  // Missing-resource queries agree too (and raise the same error kind).
  EXPECT_EQ(wired.GetGeometry(0xBAD), std::nullopt);
  EXPECT_EQ(direct.GetGeometry(0xBAD), std::nullopt);

  // The whole suite ran on the wire: replies decoded, nothing fell back.
  const xlib::Display::WireStats& stats = wired.wire_stats();
  EXPECT_GT(stats.wire_replies, 0u);
  EXPECT_EQ(stats.wire_fallbacks, 0u) << "a duplex query fell back to a direct call";
  EXPECT_EQ(stats.reply_parse_errors, 0u);
}

// In-process wire mode refuses an oversized request the same way a socket
// client does: false, no X error, no sequence number spent.
TEST(DisplayDuplex, OversizedRequestIsRefusedBeforeTheWire) {
  Server server;
  xlib::Display wired(&server, "wired");
  wired.set_wire_mode(true);
  WindowId window = wired.CreateWindow(server.RootWindow(0), {0, 0, 10, 10});
  ASSERT_NE(window, xproto::kNone);
  xproto::AtomId atom = wired.InternAtom("SWM_BIG");
  uint64_t sent = wired.RequestCount();
  EXPECT_FALSE(wired.ChangeProperty(window, atom, atom, 8, PropMode::kReplace,
                                    std::vector<uint8_t>(20000, 0x5A)));
  EXPECT_TRUE(wired.SetCursor(window, std::string(xproto::kMaxWireStringBytes, 'c')));
  EXPECT_FALSE(wired.SetCursor(window, std::string(xproto::kMaxWireStringBytes + 1, 'c')));
  EXPECT_EQ(wired.RequestCount(), sent + 1);
  EXPECT_EQ(wired.wire_stats().refused_requests, 2u);
  EXPECT_EQ(wired.ErrorCount(), 0u);
  EXPECT_EQ(wired.GetGeometry(window), std::optional<xbase::Rect>({0, 0, 10, 10}));
}

TEST(DisplayDuplex, FallbacksAreCountedForUnwiredCalls) {
  Server server;
  xlib::Display wired(&server, "wired");
  wired.set_wire_mode(true);
  (void)wired.GetInputFocus();
  (void)wired.QueryPointer();
  EXPECT_EQ(wired.wire_stats().wire_fallbacks, 2u);
}

}  // namespace
}  // namespace xserver
