// Seeded byte-level wire fuzzing (docs/PROTOCOL.md): a hostile client's
// request stream passes through the FaultPlan's wire mutations — bit flips,
// length-field lies, mid-message truncation, opcode scrambling — before the
// parser sees it, while swm manages the session above.  The codec's contract
// under every mutation is a typed ParseError (surfaced as an X error on the
// connection), never a crash, an overread, or UB; tools/check.sh runs this
// suite under ASan+UBSan to hold it to that.  Same seed, same bytes: a
// failing seed reproduces exactly.
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/xproto/wire.h"
#include "src/xserver/faults.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using xproto::ParseError;
using xproto::Request;

// A stream of plausible requests for the mutator to chew on, drawn from the
// driver stream so every seed sends different traffic.
std::vector<uint8_t> BuildRequestBuffer(xserver::FaultRng* driver,
                                        xproto::WindowId root, int frames) {
  xproto::WireWriter w;
  for (int i = 0; i < frames; ++i) {
    switch (driver->Range(0, 7)) {
      case 0:
        xproto::EncodeRequest(
            xproto::CreateWindowRequest{
                .parent = root,
                .geometry = {driver->Range(-20, 150), driver->Range(-20, 80),
                             driver->Range(1, 60), driver->Range(1, 40)}},
            &w);
        break;
      case 1:
        xproto::EncodeRequest(
            xproto::MapWindowRequest{.window = static_cast<xproto::WindowId>(
                                         driver->Range(1, 40))},
            &w);
        break;
      case 2:
        xproto::EncodeRequest(
            xproto::ConfigureWindowRequest{
                .window = static_cast<xproto::WindowId>(driver->Range(1, 40)),
                .value_mask = xproto::kConfigX | xproto::kConfigY,
                .geometry = {driver->Range(-50, 200), driver->Range(-50, 100), 0, 0}},
            &w);
        break;
      case 3: {
        std::vector<uint8_t> payload(static_cast<size_t>(driver->Range(0, 64)));
        for (uint8_t& b : payload) {
          b = static_cast<uint8_t>(driver->Next() % 256);
        }
        xproto::EncodeRequest(
            xproto::ChangePropertyRequest{
                .window = static_cast<xproto::WindowId>(driver->Range(1, 40)),
                .property = static_cast<xproto::AtomId>(driver->Range(1, 30)),
                .type = 1,
                .format = 8,
                .mode = static_cast<uint8_t>(driver->Range(0, 2)),
                .data = payload},
            &w);
        break;
      }
      case 4:
        xproto::EncodeRequest(
            xproto::DrawRequest{
                .window = static_cast<xproto::WindowId>(driver->Range(1, 40)),
                .kind = static_cast<uint8_t>(driver->Range(0, 3)),
                .rect = {0, 0, driver->Range(1, 30), driver->Range(1, 20)},
                .fill = '#',
                .text = std::string(static_cast<size_t>(driver->Range(0, 20)), 'x')},
            &w);
        break;
      case 5:
        xproto::EncodeRequest(
            xproto::SetCursorRequest{
                .window = static_cast<xproto::WindowId>(driver->Range(1, 40)),
                .name = "question_arrow"},
            &w);
        break;
      case 6:
        xproto::EncodeRequest(
            xproto::SelectInputRequest{
                .window = static_cast<xproto::WindowId>(driver->Range(1, 40)),
                .event_mask = static_cast<uint32_t>(driver->Next())},
            &w);
        break;
      case 7:
        xproto::EncodeRequest(
            xproto::DestroyWindowRequest{.window = static_cast<xproto::WindowId>(
                                             driver->Range(1, 40))},
            &w);
        break;
    }
  }
  return w.Take();
}

class WireFuzzTest : public SwmTest, public ::testing::WithParamInterface<uint64_t> {
 protected:
  void SetUp() override { xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal); }
  void TearDown() override { xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning); }
};

TEST_P(WireFuzzTest, MutatedStreamsNeverCrashTheParserOrTheWm) {
  uint64_t seed = GetParam();
  StartWm();
  auto app = Spawn("victim", {"victim", "Victim"});

  xserver::FaultPlan plan;
  plan.seed = seed;
  plan.bitflip_request_permille = 300;
  plan.lie_length_permille = 150;
  plan.truncate_request_permille = 150;
  plan.scramble_opcode_permille = 150;
  server_->InstallFaultPlan(plan);

  xserver::FaultRng driver(seed * 0x9e3779b9u + 7);
  xproto::ClientId hostile = server_->Connect("hostile-host");

  size_t dispatched = 0;
  size_t parse_errors = 0;
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " + std::to_string(round));
    std::vector<uint8_t> buffer =
        BuildRequestBuffer(&driver, server_->RootWindow(0), driver.Range(1, 6));
    xserver::Server::DispatchResult result = server_->DispatchBytes(hostile, buffer);
    dispatched += result.requests_dispatched;
    parse_errors += result.parse_errors;
    // Whatever the mutations did, the WM must keep managing its session:
    // every client it still tracks really exists (the hostile stream may
    // legitimately have destroyed some — including the victim's).
    wm_->ProcessEvents();
    for (swm::ManagedClient* mc : wm_->Clients()) {
      ASSERT_TRUE(server_->WindowExists(mc->window));
    }
    ASSERT_TRUE(server_->HasClient(hostile));
  }

  // The harness must actually have attacked something this seed...
  EXPECT_GT(server_->fault_counters().WireMutations(), 0u) << "seed " << seed;
  // ...and the parse-error counter must agree with what dispatch reported.
  EXPECT_EQ(server_->wire_parse_errors(), parse_errors);
  // The honest frames that survived mutation were really executed.
  EXPECT_GT(dispatched, 0u);

  // The server must still render and process a clean session end to end.
  server_->ClearFaultPlan();
  auto survivor = Spawn("survivor", {"survivor", "Survivor"});
  wm_->ProcessEvents();
  ASSERT_NE(Managed(*survivor), nullptr);
  server_->RenderScreen(0);
}

INSTANTIATE_TEST_SUITE_P(WireFuzzSeeds, WireFuzzTest, ::testing::Range<uint64_t>(1, 25));

// ---- Pure-codec adversarial sweeps (no server) ------------------------------

// The asymmetry gate: whatever a decoder accepts, the matching encoder must
// write, and what it writes must decode back to an equal value.
void ExpectReencodes(std::span<const uint8_t> bytes) {
  ParseError error;
  Request request;
  if (xproto::DecodeRequest(bytes, &request, &error) > 0) {
    std::vector<uint8_t> again = xproto::EncodeRequestBytes(request);
    ASSERT_FALSE(again.empty()) << "encoder refused a decoded "
                                << xproto::WireRequestName(request);
    Request twice;
    ASSERT_EQ(xproto::DecodeRequest(again, &twice, &error), again.size());
    EXPECT_TRUE(twice == request) << xproto::WireRequestName(request);
  }
  xproto::Reply reply;
  uint16_t sequence = 0;
  if (xproto::DecodeReply(bytes, &reply, &error, &sequence) > 0) {
    std::vector<uint8_t> again = xproto::EncodeReplyBytes(reply, sequence);
    xproto::Reply twice;
    ASSERT_EQ(xproto::DecodeReply(again, &twice, &error), again.size());
    EXPECT_TRUE(twice == reply) << xproto::WireReplyName(reply);
  }
  xproto::Event event;
  if (xproto::DecodeEvent(bytes, &event, &error, &sequence) > 0) {
    std::vector<uint8_t> again = xproto::EncodeEventBytes(event, sequence);
    xproto::Event twice;
    ASSERT_EQ(xproto::DecodeEvent(again, &twice, &error), again.size());
    EXPECT_TRUE(twice == event) << xproto::EventName(event);
  }
  xproto::XError xerror;
  if (xproto::DecodeError(bytes, &xerror, &error) > 0) {
    xproto::WireWriter w;
    xproto::EncodeError(xerror, &w);
    xproto::XError twice;
    ASSERT_EQ(xproto::DecodeError(w.span(), &twice, &error), w.bytes().size());
    EXPECT_EQ(twice.code, xerror.code);
    EXPECT_EQ(twice.request, xerror.request);
    EXPECT_EQ(twice.resource_id, xerror.resource_id);
    EXPECT_EQ(twice.sequence, xerror.sequence);
  }
}

// Every variable-length request field at its cap still encodes; one past it
// (or past the u16 its count travels in, or with an enum out of range) the
// encoder refuses and writes nothing — the server's decoder would reject the
// frame, so an honest client must never send it.
TEST(WireCodecFuzz, EncoderRefusesWhatTheDecoderRejects) {
  // ChangeProperty has no cap of its own: kMaxRequestBytes bounds its frame,
  // whose fixed part is 24 bytes.
  const size_t property_cap = xproto::kMaxRequestBytes - 24;
  const size_t text_cap = xproto::kMaxWireStringBytes;
  auto property = [](size_t n) {
    return xproto::ChangePropertyRequest{.window = 1, .property = 2, .type = 3,
                                         .data = std::vector<uint8_t>(n, 7)};
  };
  auto rects = [](size_t n) {
    return xproto::ShapeRegionRequest{.window = 1,
                                      .rects = std::vector<xbase::Rect>(n, {0, 0, 1, 1})};
  };
  auto draw = [](int kind, size_t text, int width, int height, size_t cells) {
    xproto::DrawRequest request;
    request.window = 1;
    request.kind = static_cast<uint8_t>(kind);
    request.text.assign(text, 't');
    request.bitmap_width = width;
    request.bitmap_height = height;
    request.bitmap_cells.resize(cells);
    return request;
  };
  std::vector<Request> at_cap = {
      property(property_cap),
      xproto::SetCursorRequest{.window = 1, .name = std::string(text_cap, 'c')},
      xproto::InternAtomRequest{.name = std::string(text_cap, 'a')},
      draw(2, text_cap, 0, 0, 0),
      rects(xproto::kMaxWireRects),
  };
  for (const Request& request : at_cap) {
    std::vector<uint8_t> bytes = xproto::EncodeRequestBytes(request);
    ASSERT_FALSE(bytes.empty()) << xproto::WireRequestName(request) << " at its cap";
    ExpectReencodes(bytes);
  }
  std::vector<Request> past_cap = {
      property(property_cap + 1),
      xproto::SetCursorRequest{.window = 1, .name = std::string(text_cap + 1, 'c')},
      xproto::SetCursorRequest{.window = 1, .name = std::string(65536 + 4, 'c')},
      xproto::InternAtomRequest{.name = std::string(text_cap + 1, 'a')},
      draw(2, text_cap + 1, 0, 0, 0),
      draw(4, 0, 1, static_cast<int>(xproto::kMaxWireBitmapCells) + 1,
           xproto::kMaxWireBitmapCells + 1),
      draw(4, 0, 2, 2, 0),  // Cells disagree with width x height.
      rects(xproto::kMaxWireRects + 1),
      xproto::CreateWindowRequest{
          .parent = 1, .geometry = {}, .window_class = xproto::WindowClass{2}},
      xproto::ChangePropertyRequest{.window = 1, .format = 7, .data = {}},
      xproto::ChangePropertyRequest{.window = 1, .mode = 3, .data = {}},
      xproto::ConfigureWindowRequest{.window = 1, .value_mask = 1u << 7, .geometry = {}},
      xproto::ConfigureWindowRequest{.window = 1,
                                     .value_mask = xproto::kConfigStackMode,
                                     .geometry = {},
                                     .stack_mode = xproto::StackMode{5}},
      xproto::GrabButtonRequest{.window = 1, .button = xproto::kMaxButton + 1},
      draw(5, 0, 0, 0, 0),
      xproto::SendEventRequest{
          .destination = 1,
          .event = xproto::ButtonEvent{.button = 0, .root_pos = {}, .pos = {}}},
  };
  for (size_t i = 0; i < past_cap.size(); ++i) {
    xproto::WireWriter w;
    w.U32(0xFEEDFACE);  // Earlier frames in the writer are left alone.
    EXPECT_FALSE(xproto::EncodeRequest(past_cap[i], &w))
        << xproto::WireRequestName(past_cap[i]) << " (case " << i << ")";
    EXPECT_EQ(w.bytes().size(), 4u) << "a refused request wrote bytes (case " << i << ")";
  }
}

TEST(WireCodecFuzz, SeededGarbageBuffersNeverCrash) {
  // Uniform garbage at every small size; the decoder must fail (or decode a
  // frame that happens to be valid) without ever reading out of bounds.
  xserver::FaultRng rng(0xC0FFEE);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> buffer(static_cast<size_t>(rng.Range(0, 96)));
    for (uint8_t& b : buffer) {
      b = static_cast<uint8_t>(rng.Next() % 256);
    }
    ExpectReencodes(buffer);
    ParseError error;
    xproto::ParseTrace(buffer, &error);
  }
}

TEST(WireCodecFuzz, EveryOpcodeTimesGarbagePayload) {
  // Structured attack: a valid header for every opcode value (0..255) over a
  // garbage payload of every 4-byte-aligned size up to 64.
  xserver::FaultRng rng(0xFACADE);
  for (int opcode = 0; opcode < 256; ++opcode) {
    for (size_t payload = 0; payload <= 64; payload += 4) {
      std::vector<uint8_t> frame(4 + payload);
      frame[0] = static_cast<uint8_t>(opcode);
      frame[1] = static_cast<uint8_t>(rng.Next() % 256);
      frame[2] = static_cast<uint8_t>(frame.size() / 4);
      frame[3] = 0;
      for (size_t i = 4; i < frame.size(); ++i) {
        frame[i] = static_cast<uint8_t>(rng.Next() % 256);
      }
      ExpectReencodes(frame);
      // The same garbage behind an honest reply header for this opcode, so
      // the reply decoders meet it too.
      if (frame.size() >= xproto::kMinReplyBytes) {
        frame[0] = 1;
        frame[1] = static_cast<uint8_t>(opcode);
        frame[4] = static_cast<uint8_t>((frame.size() - xproto::kMinReplyBytes) / 4);
        frame[5] = frame[6] = frame[7] = 0;
        ExpectReencodes(frame);
      }
    }
  }
}

TEST(WireCodecFuzz, MalformedFramesRaiseXErrorsOnTheConnection) {
  // DispatchBytes surfaces parse errors through the PR-3 error channel: the
  // client's handler sees BadRequest/BadLength/BadValue, sequence numbers
  // advance, and the rest of the buffer is dropped.
  xserver::Server server;
  xlib::Display dpy(&server, "hostile");
  std::vector<xproto::XError> seen;
  dpy.SetErrorHandler([&](const xproto::XError& e) { seen.push_back(e); });

  std::vector<uint8_t> buffer = {99, 0, 1, 0};  // Unknown opcode.
  std::vector<uint8_t> tail =
      xproto::EncodeRequestBytes(xproto::MapWindowRequest{.window = 1});
  buffer.insert(buffer.end(), tail.begin(), tail.end());

  uint64_t seq_before = server.SequenceNumber(dpy.client_id());
  xserver::Server::DispatchResult result = server.DispatchBytes(dpy.client_id(), buffer);
  EXPECT_EQ(result.parse_errors, 1u);
  EXPECT_EQ(result.requests_dispatched, 0u) << "buffer poisoned after framing error";
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].code, xproto::ErrorCode::kBadRequest);
  EXPECT_EQ(server.SequenceNumber(dpy.client_id()), seq_before + 1);
  EXPECT_EQ(server.wire_parse_errors(), 1u);

  // A length lie maps to BadLength.
  std::vector<uint8_t> lie = xproto::EncodeRequestBytes(xproto::MapWindowRequest{.window = 1});
  lie[2] = 0xFF;
  lie[3] = 0xFF;
  server.DispatchBytes(dpy.client_id(), lie);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].code, xproto::ErrorCode::kBadLength);
}

}  // namespace
}  // namespace swm_test
