// Differential tests for the hardened X wire codec (docs/PROTOCOL.md):
// encode → decode must be the identity for every request, event and error
// type the subset implements, including boundary values (±kMaxCoordinate
// coordinates, zero-length properties, cap-sized payloads); and every
// malformed frame — truncated, oversized, misaligned, length-lying — must
// come back as a typed ParseError, never a crash or an overread.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/xproto/error.h"
#include "src/xproto/events.h"
#include "src/xproto/trace.h"
#include "src/xproto/types.h"
#include "src/xproto/wire.h"

namespace xproto {
namespace {

// ---- Request round-trips ----------------------------------------------------

// Encode, decode, and require the result to equal the input bit for bit.
void ExpectRequestRoundTrip(const Request& request) {
  std::vector<uint8_t> bytes = EncodeRequestBytes(request);
  SCOPED_TRACE(WireRequestName(request) + " (" + std::to_string(bytes.size()) + " bytes)");
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes.size() % 4, 0u) << "frames are 4-byte aligned";
  // The header length field counts 4-byte units including the header.
  size_t header_len = (static_cast<size_t>(bytes[2]) | static_cast<size_t>(bytes[3]) << 8) * 4;
  EXPECT_EQ(header_len, bytes.size());

  Request decoded;
  ParseError error;
  size_t consumed = DecodeRequest(bytes, &decoded, &error);
  ASSERT_EQ(consumed, bytes.size()) << ParseErrorText(error);
  EXPECT_TRUE(request == decoded);
}

// One exemplar per request type, with boundary values where the wire
// representation has edges.
std::vector<Request> AllRequestExemplars() {
  std::vector<Request> all;
  all.push_back(CreateWindowRequest{.parent = 1,
                                    .geometry = {-kMaxCoordinate, kMaxCoordinate, 65535, 1},
                                    .border_width = 65535,
                                    .window_class = WindowClass::kInputOnly,
                                    .override_redirect = true});
  all.push_back(CreateWindowRequest{});  // All defaults.
  all.push_back(DestroyWindowRequest{.window = 0xFFFFFFFFu});
  all.push_back(MapWindowRequest{.window = 7});
  all.push_back(UnmapWindowRequest{.window = 7});
  all.push_back(ReparentWindowRequest{
      .window = 3, .parent = 4, .position = {-kMaxCoordinate, kMaxCoordinate}});
  all.push_back(ConfigureWindowRequest{.window = 9, .value_mask = 0});  // Empty LISTofVALUE.
  all.push_back(ConfigureWindowRequest{
      .window = 9,
      .value_mask = kConfigX | kConfigY | kConfigWidth | kConfigHeight | kConfigBorderWidth |
                    kConfigSibling | kConfigStackMode,
      .geometry = {-kMaxCoordinate, kMaxCoordinate, 1, 2},
      .border_width = 5,
      .sibling = 11,
      .stack_mode = StackMode::kOpposite});
  all.push_back(ConfigureWindowRequest{
      .window = 2, .value_mask = kConfigStackMode, .stack_mode = StackMode::kBottomIf});
  all.push_back(SelectInputRequest{.window = 5, .event_mask = 0xFFFFFFFFu});
  all.push_back(ChangeSaveSetRequest{.window = 6, .add = false});
  all.push_back(ChangePropertyRequest{.window = 8,
                                      .property = 2,
                                      .type = 3,
                                      .format = 8,
                                      .mode = 2,
                                      .data = {}});  // Zero-length property.
  all.push_back(ChangePropertyRequest{
      .window = 8,
      .property = 2,
      .type = 3,
      .format = 32,
      .mode = 0,
      .data = std::vector<uint8_t>(4096, 0xAB)});
  all.push_back(DeletePropertyRequest{.window = 8, .property = 2});
  all.push_back(SendEventRequest{.destination = 12,
                                 .event_mask = kPropertyChangeMask,
                                 .event = PropertyNotifyEvent{.window = 12,
                                                              .atom = 44,
                                                              .state = PropertyState::kDeleted,
                                                              .time = 123456789}});
  all.push_back(SetInputFocusRequest{.window = kNone});
  all.push_back(GrabButtonRequest{
      .window = 13, .button = kMaxButton, .modifiers = 0x11, .event_mask = 0x22});
  all.push_back(GrabButtonRequest{.window = 13, .button = 0});  // AnyButton.
  all.push_back(UngrabButtonRequest{.window = 13, .button = 1, .modifiers = 0});
  all.push_back(ClearWindowRequest{.window = 14});
  all.push_back(SetWindowBackgroundRequest{.window = 15, .background = '#'});
  all.push_back(SetCursorRequest{.window = 16, .name = ""});
  all.push_back(SetCursorRequest{.window = 16, .name = "question_arrow"});
  all.push_back(DrawRequest{.window = 17,
                            .kind = 0,
                            .rect = {-kMaxCoordinate, kMaxCoordinate, 80, 24},
                            .fill = '~'});
  all.push_back(DrawRequest{.window = 17,
                            .kind = 2,
                            .rect = {1, 2, 3, 4},
                            .fill = ' ',
                            .text = std::string(100, 'x')});
  all.push_back(DrawRequest{.window = 17,
                            .kind = 4,
                            .rect = {0, 0, 8, 4},
                            .bitmap_width = 8,
                            .bitmap_height = 4,
                            .bitmap_cells = std::vector<uint8_t>(32, 1)});
  all.push_back(ShapeRegionRequest{.window = 18, .rects = {}});
  all.push_back(ShapeRegionRequest{
      .window = 18,
      .rects = {{0, 0, 10, 10}, {-kMaxCoordinate, kMaxCoordinate, 65535, 65535}}});
  all.push_back(ShapeClearRequest{.window = 19});
  all.push_back(ShapeSelectRequest{.window = 20, .enable = true});
  // Reply-bearing queries.
  all.push_back(GetWindowAttributesRequest{.window = 21});
  all.push_back(GetGeometryRequest{.window = 0xFFFFFFFFu});
  all.push_back(QueryTreeRequest{.window = 22});
  all.push_back(InternAtomRequest{.name = ""});
  all.push_back(InternAtomRequest{.name = "WM_PROTOCOLS"});
  all.push_back(InternAtomRequest{.name = std::string(kMaxWireStringBytes, 'a')});
  all.push_back(GetAtomNameRequest{.atom = 31});
  all.push_back(GetPropertyRequest{.window = 23, .property = 32});
  all.push_back(TranslateCoordinatesRequest{
      .src = 24, .dst = 25, .point = {-kMaxCoordinate, kMaxCoordinate}});
  all.push_back(QueryScreensRequest{});
  all.push_back(QueryLastCreatedRequest{});
  return all;
}

TEST(WireRequestRoundTrip, EveryRequestTypeIsIdentity) {
  for (const Request& request : AllRequestExemplars()) {
    ExpectRequestRoundTrip(request);
  }
}

TEST(WireRequestRoundTrip, ConfigureWindowEveryMaskSubset) {
  // The LISTofVALUE encoding is mask-driven; exercise all 128 subsets.
  for (uint16_t mask = 0; mask < 128; ++mask) {
    ConfigureWindowRequest request;
    request.window = 1;
    request.value_mask = mask;
    request.geometry = {-5, 7, 300, 200};
    request.border_width = 2;
    request.sibling = 42;
    request.stack_mode = StackMode::kBelow;
    // Fields not covered by the mask don't travel; zero them so the decoded
    // struct (which leaves them defaulted) compares equal.
    if (!(mask & kConfigX)) request.geometry.x = 0;
    if (!(mask & kConfigY)) request.geometry.y = 0;
    if (!(mask & kConfigWidth)) request.geometry.width = 0;
    if (!(mask & kConfigHeight)) request.geometry.height = 0;
    if (!(mask & kConfigBorderWidth)) request.border_width = 0;
    if (!(mask & kConfigSibling)) request.sibling = kNone;
    if (!(mask & kConfigStackMode)) request.stack_mode = StackMode::kAbove;
    ExpectRequestRoundTrip(request);
  }
}

TEST(WireRequestRoundTrip, BackToBackFramesDecodeInSequence) {
  WireWriter w;
  std::vector<Request> sent = AllRequestExemplars();
  for (const Request& request : sent) {
    EncodeRequest(request, &w);
  }
  std::span<const uint8_t> buffer = w.span();
  size_t offset = 0;
  for (const Request& request : sent) {
    Request decoded;
    ParseError error;
    size_t consumed = DecodeRequest(buffer.subspan(offset), &decoded, &error);
    ASSERT_GT(consumed, 0u) << ParseErrorText(error);
    EXPECT_TRUE(request == decoded);
    offset += consumed;
  }
  EXPECT_EQ(offset, buffer.size());
}

// ---- Event round-trips ------------------------------------------------------

void ExpectEventRoundTrip(const Event& event) {
  SCOPED_TRACE(EventName(event));
  std::vector<uint8_t> bytes = EncodeEventBytes(event, 0xBEEF);
  ASSERT_EQ(bytes.size(), kEventWireBytes);
  Event decoded;
  ParseError error;
  uint16_t sequence = 0;
  ASSERT_EQ(DecodeEvent(bytes, &decoded, &error, &sequence), kEventWireBytes)
      << ParseErrorText(error);
  EXPECT_EQ(sequence, 0xBEEF);
  EXPECT_TRUE(event == decoded);
}

std::vector<Event> AllEventExemplars() {
  std::vector<Event> all;
  all.push_back(ButtonEvent{.press = true,
                            .window = 1,
                            .subwindow = 2,
                            .button = kMaxButton,
                            .modifiers = 0x15,
                            .root_pos = {-kMaxCoordinate, kMaxCoordinate},
                            .pos = {3, -4},
                            .time = 0xDEADBEEFCAFEull});
  all.push_back(ButtonEvent{.press = false, .window = 1, .button = 1});
  all.push_back(MotionEvent{
      .window = 1, .subwindow = 0, .modifiers = 1, .root_pos = {5, 6}, .pos = {7, 8}});
  all.push_back(KeyEvent{.press = true, .window = 2, .keysym = 0xFF0D, .modifiers = 4});
  all.push_back(KeyEvent{.press = false, .window = 2, .keysym = 'q'});
  all.push_back(CrossingEvent{.enter = true, .window = 3, .root_pos = {1, 1}, .pos = {0, 0}});
  all.push_back(CrossingEvent{.enter = false, .window = 3});
  all.push_back(ExposeEvent{.window = 4, .area = {0, 0, 65535, 65535}, .count = -1});
  all.push_back(CreateNotifyEvent{
      .parent = 5, .window = 6, .geometry = {1, 2, 3, 4}, .override_redirect = true});
  all.push_back(DestroyNotifyEvent{.event_window = 7, .window = 8});
  all.push_back(MapRequestEvent{.parent = 9, .window = 10});
  all.push_back(MapNotifyEvent{.event_window = 11, .window = 12, .override_redirect = true});
  all.push_back(UnmapNotifyEvent{.event_window = 13, .window = 14, .from_configure = true});
  all.push_back(ReparentNotifyEvent{.event_window = 15,
                                    .window = 16,
                                    .parent = 17,
                                    .pos = {-100, 100},
                                    .override_redirect = false});
  all.push_back(ConfigureRequestEvent{.parent = 18,
                                      .window = 19,
                                      .value_mask = kConfigX | kConfigStackMode,
                                      .geometry = {9, 8, 7, 6},
                                      .border_width = 1,
                                      .sibling = 20,
                                      .stack_mode = StackMode::kOpposite});
  all.push_back(ConfigureNotifyEvent{.event_window = 21,
                                     .window = 22,
                                     .geometry = {-1, -2, 30, 40},
                                     .border_width = 3,
                                     .above_sibling = 23,
                                     .override_redirect = true,
                                     .synthetic = true});
  all.push_back(CirculateRequestEvent{.parent = 24, .window = 25, .place_on_top = false});
  all.push_back(PropertyNotifyEvent{
      .window = 26, .atom = 27, .state = PropertyState::kDeleted, .time = 99});
  all.push_back(ClientMessageEvent{
      .window = 28, .message_type = 29, .format = 32, .data = {1, 2, 3, 4, 5}});
  all.push_back(ClientMessageEvent{.window = 28, .message_type = 29, .format = 8});
  all.push_back(FocusEvent{.in = true, .window = 30});
  all.push_back(FocusEvent{.in = false, .window = 31});
  all.push_back(ShapeNotifyEvent{.window = 32, .shaped = true, .extents = {0, 0, 5, 5}});
  return all;
}

TEST(WireEventRoundTrip, EveryEventTypeIsIdentity) {
  for (const Event& event : AllEventExemplars()) {
    ExpectEventRoundTrip(event);
  }
}

TEST(WireErrorRoundTrip, ErrorFrameIsIdentity) {
  XError error;
  error.code = ErrorCode::kBadLength;
  error.request = RequestCode::kDraw;
  error.resource_id = 0xABCD1234u;
  error.sequence = 1207;
  WireWriter w;
  EncodeError(error, &w);
  ASSERT_EQ(w.bytes().size(), kEventWireBytes);
  XError decoded;
  ParseError parse_error;
  ASSERT_EQ(DecodeError(w.span(), &decoded, &parse_error), kEventWireBytes);
  EXPECT_EQ(decoded.code, error.code);
  EXPECT_EQ(decoded.request, error.request);
  EXPECT_EQ(decoded.resource_id, error.resource_id);
  EXPECT_EQ(decoded.sequence, error.sequence);
}

// ---- Malformed-frame rejection ----------------------------------------------

ParseError DecodeExpectingFailure(std::span<const uint8_t> bytes) {
  Request decoded;
  ParseError error;
  EXPECT_EQ(DecodeRequest(bytes, &decoded, &error), 0u);
  return error;
}

TEST(WireRequestRejects, EmptyAndShortBuffers) {
  EXPECT_EQ(DecodeExpectingFailure({}).code, ParseErrorCode::kTruncated);
  std::vector<uint8_t> three = {8, 0, 1};
  EXPECT_EQ(DecodeExpectingFailure(three).code, ParseErrorCode::kTruncated);
}

TEST(WireRequestRejects, UnknownOpcode) {
  std::vector<uint8_t> frame = {99, 0, 2, 0, 1, 0, 0, 0};
  ParseError error = DecodeExpectingFailure(frame);
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);
  EXPECT_EQ(error.opcode, 99);
}

TEST(WireRequestRejects, ZeroLengthField) {
  std::vector<uint8_t> frame = {8, 0, 0, 0, 1, 0, 0, 0};
  EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadLength);
}

TEST(WireRequestRejects, LengthFieldBeyondBuffer) {
  std::vector<uint8_t> frame = EncodeRequestBytes(MapWindowRequest{.window = 1});
  frame[2] = 0x40;  // Claim 256 bytes; the buffer has 8.
  frame[3] = 0;
  EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kTruncated);
}

TEST(WireRequestRejects, OversizedLengthField) {
  std::vector<uint8_t> frame = EncodeRequestBytes(MapWindowRequest{.window = 1});
  frame[2] = 0xFF;  // 0xFFFF units = 256KB > kMaxRequestBytes.
  frame[3] = 0xFF;
  EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kOversized);
}

TEST(WireRequestRejects, LengthLongerThanPayloadNeeds) {
  // A frame padded out beyond what its payload decodes to is a length lie.
  std::vector<uint8_t> frame = EncodeRequestBytes(MapWindowRequest{.window = 1});
  frame.resize(frame.size() + 4, 0);
  frame[2] = static_cast<uint8_t>(frame.size() / 4);
  EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadLength);
}

TEST(WireRequestRejects, EmbeddedPropertyLengthLie) {
  // The ChangeProperty data_len claims more bytes than the frame carries.
  std::vector<uint8_t> frame = EncodeRequestBytes(ChangePropertyRequest{
      .window = 1, .property = 2, .type = 3, .format = 8, .mode = 0,
      .data = {1, 2, 3, 4}});
  // data_len lives 16 bytes into the payload (after window/property/type,
  // format + 3 pad): header(4) + 12 + 4 = offset 20.
  frame[20] = 0xFF;
  frame[21] = 0xFF;
  ParseError error = DecodeExpectingFailure(frame);
  EXPECT_EQ(error.code, ParseErrorCode::kBadLength);
}

TEST(WireRequestRejects, BadEnumValues) {
  {
    std::vector<uint8_t> frame = EncodeRequestBytes(CreateWindowRequest{.parent = 1});
    frame[1] = 7;  // Window class must be 0/1.
    EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadValue);
  }
  {
    std::vector<uint8_t> frame = EncodeRequestBytes(GrabButtonRequest{.window = 1, .button = 1});
    frame[1] = kMaxButton + 1;
    EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadValue);
  }
  {
    std::vector<uint8_t> frame = EncodeRequestBytes(ConfigureWindowRequest{
        .window = 1, .value_mask = kConfigStackMode, .stack_mode = StackMode::kAbove});
    // StackMode value slot: header(4) + window(4) + mask(2) + pad(2) = 12.
    frame[12] = 200;
    EXPECT_EQ(DecodeExpectingFailure(frame).code, ParseErrorCode::kBadValue);
  }
}

// The decoder cannot tell a wrapped number from an honest one, so the encoder
// refuses any value its wire field cannot hold: {40000, -40000, 70000, 5}
// with border 70000 would otherwise arrive as {-25536, 25536, 4464, 5}
// with border 4464.
TEST(WireRequestRejects, EncoderRefusesNumbersThatWrap) {
  CreateWindowRequest wraps{
      .parent = 1, .geometry = {40000, -40000, 70000, 5}, .border_width = 70000};
  WireWriter w;
  EXPECT_FALSE(EncodeRequest(Request{wraps}, &w));
  EXPECT_TRUE(w.bytes().empty()) << "a refused request writes nothing";
  EXPECT_TRUE(EncodeRequestBytes(wraps).empty());

  // One field out of range is enough; the edges of each width still encode.
  CreateWindowRequest edges{
      .parent = 1, .geometry = {-32768, 32767, 65535, 0}, .border_width = 65535};
  ExpectRequestRoundTrip(edges);
  for (auto bend : std::vector<void (*)(CreateWindowRequest*)>{
           [](CreateWindowRequest* r) { r->geometry.x = 32768; },
           [](CreateWindowRequest* r) { r->geometry.y = -32769; },
           [](CreateWindowRequest* r) { r->geometry.width = 65536; },
           [](CreateWindowRequest* r) { r->geometry.height = -1; },
           [](CreateWindowRequest* r) { r->border_width = 65536; },
       }) {
    CreateWindowRequest one = edges;
    bend(&one);
    EXPECT_TRUE(EncodeRequestBytes(one).empty())
        << one.geometry.x << "," << one.geometry.y << " " << one.geometry.width << "x"
        << one.geometry.height << " border " << one.border_width;
  }
}

TEST(WireRequestRejects, OversizedDrawBitmap) {
  WireWriter w;
  w.BeginRequest(static_cast<uint8_t>(WireOpcode::kDraw), 4);
  w.U32(1);             // window
  w.I16(0); w.I16(0); w.U16(8); w.U16(8);  // rect
  w.U8(' '); w.U8(0);
  w.U16(0);             // text_len
  w.U16(300); w.U16(300);  // 90000 cells > kMaxWireBitmapCells
  w.CloseRequest();
  EXPECT_EQ(DecodeExpectingFailure(w.span()).code, ParseErrorCode::kOversized);
}

TEST(WireRequestRejects, TruncationSweepNeverCrashes) {
  // Every proper prefix of every exemplar frame must fail cleanly.  Under
  // ASan/UBSan this is the no-overread guarantee.
  for (const Request& request : AllRequestExemplars()) {
    std::vector<uint8_t> frame = EncodeRequestBytes(request);
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      Request decoded;
      ParseError error;
      EXPECT_EQ(DecodeRequest(std::span<const uint8_t>(frame.data(), cut), &decoded, &error),
                0u)
          << WireRequestName(request) << " prefix " << cut;
    }
  }
}

TEST(WireEventRejects, ShortUnknownAndBadDetail) {
  Event decoded;
  ParseError error;
  std::vector<uint8_t> short_frame(16, 0);
  EXPECT_EQ(DecodeEvent(short_frame, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kTruncated);

  std::vector<uint8_t> unknown(kEventWireBytes, 0);
  unknown[0] = 200;
  EXPECT_EQ(DecodeEvent(unknown, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);

  std::vector<uint8_t> bad_button = EncodeEventBytes(ButtonEvent{.window = 1, .button = 1}, 0);
  bad_button[1] = kMaxButton + 1;
  EXPECT_EQ(DecodeEvent(bad_button, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadValue);
}

// ---- Trace container round-trip ---------------------------------------------

TEST(TraceRoundTrip, SerializeParseIsIdentity) {
  TraceRecorder recorder;
  recorder.RecordConnect(3, "wm-host");
  recorder.RecordConnect(4, "");
  std::vector<uint8_t> frame = EncodeRequestBytes(MapWindowRequest{.window = 9});
  recorder.RecordRequestBytes(3, frame);
  recorder.RecordMotion(-50, 50);
  recorder.RecordButton(1, true, 0x8);
  recorder.RecordButton(1, false, 0);
  recorder.RecordKey(0xFF0D, true, 1);
  recorder.RecordWarp(0, 10, 20);
  recorder.RecordPump();
  recorder.RecordDisconnect(4);
  recorder.RecordExpect(17, 5, 1234);

  std::vector<uint8_t> bytes = SerializeTrace(recorder.trace());
  ParseError error;
  std::optional<Trace> parsed = ParseTrace(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << ParseErrorText(error);
  ASSERT_EQ(parsed->records.size(), recorder.trace().records.size());
  for (size_t i = 0; i < parsed->records.size(); ++i) {
    EXPECT_TRUE(parsed->records[i] == recorder.trace().records[i]) << "record " << i;
  }
}

TEST(TraceRoundTrip, RejectsCorruptContainers) {
  TraceRecorder recorder;
  recorder.RecordConnect(1, "host");
  std::vector<uint8_t> bytes = SerializeTrace(recorder.trace());
  ParseError error;

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseTrace(bad_magic, &error).has_value());
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);

  std::vector<uint8_t> bad_version = bytes;
  bad_version[4] = 99;
  EXPECT_FALSE(ParseTrace(bad_version, &error).has_value());
  EXPECT_EQ(error.code, ParseErrorCode::kBadValue);

  // Every truncation of the container fails cleanly (or parses a shorter
  // record list; never reads past the end).
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ParseTrace(std::span<const uint8_t>(bytes.data(), cut), &error);
  }

  std::vector<uint8_t> bad_type = bytes;
  bad_type[8] = 0x7F;  // Record type header byte.
  EXPECT_FALSE(ParseTrace(bad_type, &error).has_value());
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);
}

// ---- Reply round-trips ------------------------------------------------------

void ExpectReplyRoundTrip(const Reply& reply) {
  SCOPED_TRACE(WireReplyName(reply));
  std::vector<uint8_t> bytes = EncodeReplyBytes(reply, 0xCAFE);
  ASSERT_GE(bytes.size(), kMinReplyBytes) << "replies are at least 32 bytes";
  EXPECT_EQ(bytes.size() % 4, 0u) << "reply frames are 4-byte aligned";
  EXPECT_EQ(bytes[0], 1) << "reply frames start with a one byte";
  // The extra-length field counts 4-byte units beyond the 32-byte minimum.
  uint32_t extra = static_cast<uint32_t>(bytes[4]) | (static_cast<uint32_t>(bytes[5]) << 8) |
                   (static_cast<uint32_t>(bytes[6]) << 16) |
                   (static_cast<uint32_t>(bytes[7]) << 24);
  EXPECT_EQ(kMinReplyBytes + static_cast<size_t>(extra) * 4, bytes.size());

  Reply decoded;
  ParseError error;
  uint16_t sequence = 0;
  ASSERT_EQ(DecodeReply(bytes, &decoded, &error, &sequence), bytes.size())
      << ParseErrorText(error);
  EXPECT_EQ(sequence, 0xCAFE);
  EXPECT_TRUE(reply == decoded);
}

std::vector<Reply> AllReplyExemplars() {
  std::vector<Reply> all;
  all.push_back(AttributesReply{.window = 1,
                                .window_class = WindowClass::kInputOnly,
                                .map_state = MapState::kViewable,
                                .override_redirect = true,
                                .all_event_masks = 0xFFFFFFFFu,
                                .border_width = 65535});
  all.push_back(AttributesReply{});  // All defaults.
  all.push_back(GeometryReply{
      .window = 2, .geometry = {-kMaxCoordinate, kMaxCoordinate, 65535, 1}, .border_width = 7});
  all.push_back(TreeReply{.window = 3, .root = 1, .parent = 2, .children = {}});
  std::vector<WindowId> children(500);
  for (size_t i = 0; i < children.size(); ++i) {
    children[i] = static_cast<WindowId>(i + 100);
  }
  all.push_back(TreeReply{.window = 3, .root = 1, .parent = 2, .children = children});
  all.push_back(AtomReply{.atom = 0xFFFFFFFFu});
  all.push_back(AtomNameReply{.atom = 5, .name = ""});
  all.push_back(AtomNameReply{.atom = 5, .name = "WM_DELETE_WINDOW"});
  all.push_back(AtomNameReply{.atom = 6, .name = std::string(kMaxWireStringBytes, 'n')});
  all.push_back(PropertyReply{.window = 7, .property = 8, .found = false});
  all.push_back(PropertyReply{.window = 7,
                              .property = 8,
                              .found = true,
                              .type = 9,
                              .format = 32,
                              .data = std::vector<uint8_t>(4096, 0xCD)});
  all.push_back(PropertyReply{
      .window = 7, .property = 8, .found = true, .type = 9, .format = 16, .data = {}});
  all.push_back(CoordinatesReply{.position = {-kMaxCoordinate, kMaxCoordinate}});
  all.push_back(ScreensReply{});
  all.push_back(ScreensReply{.screens = {{.root = 1, .width = 80, .height = 24, .monochrome = true},
                                         {.root = 2, .width = 65535, .height = 1}}});
  all.push_back(LastCreatedReply{});  // kNone: the last create failed.
  all.push_back(LastCreatedReply{.window = 0x12345678u});
  all.push_back(LastCreatedReply{.window = 0xFFFFFFFFu});
  return all;
}

TEST(WireReplyRoundTrip, EveryReplyTypeIsIdentity) {
  for (const Reply& reply : AllReplyExemplars()) {
    ExpectReplyRoundTrip(reply);
  }
}

TEST(WireReplyRoundTrip, BackToBackReplyFramesDecodeInSequence) {
  WireWriter w;
  std::vector<Reply> sent = AllReplyExemplars();
  uint16_t seq = 1;
  for (const Reply& reply : sent) {
    EncodeReply(reply, seq++, &w);
  }
  std::span<const uint8_t> buffer = w.span();
  size_t offset = 0;
  seq = 1;
  for (const Reply& reply : sent) {
    Reply decoded;
    ParseError error;
    uint16_t decoded_seq = 0;
    size_t consumed = DecodeReply(buffer.subspan(offset), &decoded, &error, &decoded_seq);
    ASSERT_GT(consumed, 0u) << ParseErrorText(error);
    EXPECT_EQ(decoded_seq, seq++);
    EXPECT_TRUE(reply == decoded);
    offset += consumed;
  }
  EXPECT_EQ(offset, buffer.size());
}

// Every reply type, every truncation point: a frame cut anywhere must come
// back as a typed ParseError, never a crash, overread, or bogus success.
TEST(WireReplyRejects, TruncationSweepOverEveryReplyType) {
  for (const Reply& reply : AllReplyExemplars()) {
    SCOPED_TRACE(WireReplyName(reply));
    std::vector<uint8_t> bytes = EncodeReplyBytes(reply, 7);
    // Sweep every prefix of small frames; sample larger ones (every cut
    // within the first/last 64 bytes plus every 7th in between).
    for (size_t len = 0; len < bytes.size(); ++len) {
      if (bytes.size() > 160 && len > 64 && len + 64 < bytes.size() && len % 7 != 0) {
        continue;
      }
      Reply decoded;
      ParseError error;
      EXPECT_EQ(DecodeReply(std::span(bytes.data(), len), &decoded, &error), 0u)
          << "prefix of " << len << " bytes decoded";
      EXPECT_EQ(error.code, ParseErrorCode::kTruncated);
    }
  }
}

TEST(WireReplyRejects, FirstByteMustBeOne) {
  std::vector<uint8_t> bytes = EncodeReplyBytes(AtomReply{.atom = 3}, 0);
  for (uint8_t first : {0, 2, 255}) {
    bytes[0] = first;
    Reply decoded;
    ParseError error;
    EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
    EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);
  }
}

TEST(WireReplyRejects, UnknownReplyOpcode) {
  std::vector<uint8_t> bytes = EncodeReplyBytes(AtomReply{.atom = 3}, 0);
  bytes[1] = 99;  // No query has opcode 99.
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadOpcode);
}

TEST(WireReplyRejects, OversizedExtraLength) {
  std::vector<uint8_t> bytes = EncodeReplyBytes(AtomReply{.atom = 3}, 0);
  bytes[4] = 0xFF;
  bytes[5] = 0xFF;
  bytes[6] = 0xFF;
  bytes[7] = 0xFF;
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kOversized);
}

TEST(WireReplyRejects, ExtraLengthDisagreesWithPayload) {
  // Pad a valid frame by one 4-byte unit and fix up the extra-length field:
  // the strict framing check must reject the lie.
  std::vector<uint8_t> bytes = EncodeReplyBytes(CoordinatesReply{.position = {1, 2}}, 0);
  bytes.resize(bytes.size() + 4, 0);
  uint32_t extra = static_cast<uint32_t>((bytes.size() - kMinReplyBytes) / 4);
  bytes[4] = static_cast<uint8_t>(extra);
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadLength);
}

// QueryLastCreated answers with one id in the fixed 32-byte frame: any
// shorter frame is truncated, any longer one is a length lie, and an
// extra-length beyond the reply cap is oversized.
TEST(WireReplyRejects, LastCreatedReplyIsExactlyOneFixedFrame) {
  std::vector<uint8_t> bytes = EncodeReplyBytes(LastCreatedReply{.window = 77}, 3);
  ASSERT_EQ(bytes.size(), kMinReplyBytes);
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(std::span(bytes.data(), bytes.size() - 1), &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kTruncated);

  std::vector<uint8_t> padded = bytes;
  padded.resize(bytes.size() + 4, 0);
  padded[4] = 1;  // One 4-byte unit past the floor, carrying nothing.
  EXPECT_EQ(DecodeReply(padded, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadLength);

  std::vector<uint8_t> oversized = bytes;
  oversized[4] = oversized[5] = oversized[6] = oversized[7] = 0xFF;
  EXPECT_EQ(DecodeReply(oversized, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kOversized);

  ASSERT_EQ(DecodeReply(bytes, &decoded, &error), kMinReplyBytes);
  EXPECT_TRUE(decoded == Reply(LastCreatedReply{.window = 77}));
}

TEST(WireReplyRejects, BadEnumValuesRejected) {
  std::vector<uint8_t> bytes = EncodeReplyBytes(AttributesReply{.window = 1}, 0);
  bytes[8 + 4] = 9;  // window_class: only 0/1 are valid.
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadValue);
}

TEST(WireReplyRejects, ChildCountLie) {
  std::vector<uint8_t> bytes =
      EncodeReplyBytes(TreeReply{.window = 1, .root = 1, .parent = 1, .children = {2, 3}}, 0);
  // Child count lives after window/root/parent: payload offset 12, frame
  // offset 8 + 12 = 20.  Claim more children than the frame carries.
  bytes[20] = 0xF0;
  Reply decoded;
  ParseError error;
  EXPECT_EQ(DecodeReply(bytes, &decoded, &error), 0u);
  EXPECT_EQ(error.code, ParseErrorCode::kBadLength);
}


// ---- Golden format ----------------------------------------------------------
//
// The wire format pinned byte for byte: the hex of every exemplar frame
// above (plus one error frame), and a digest over every truncation and every
// single-bit flip of each of them, run through the matching decoder.  A codec
// change that moves a byte, or changes which ParseErrorCode a malformed frame
// earns, fails here.  Both tables were computed once from the hand-written
// codec and must not be regenerated to make a change pass.

XError GoldenError() {
  XError error;
  error.code = ErrorCode::kBadLength;
  error.request = RequestCode::kDraw;
  error.resource_id = 0xABCD1234u;
  error.sequence = 1207;
  return error;
}

std::vector<uint8_t> EncodeErrorBytes(const XError& error) {
  WireWriter w;
  EncodeError(error, &w);
  return w.Take();
}

// Lower-case hex; a run of 8 or more equal bytes is written "[xx*N]".
std::string GoldenHex(std::span<const uint8_t> bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < bytes.size();) {
    size_t run = 1;
    while (i + run < bytes.size() && bytes[i + run] == bytes[i]) {
      ++run;
    }
    std::string pair = {kDigits[bytes[i] >> 4], kDigits[bytes[i] & 15]};
    if (run >= 8) {
      out += "[" + pair + "*" + std::to_string(run) + "]";
      i += run;
    } else {
      out += pair;
      ++i;
    }
  }
  return out;
}

enum class FrameKind { kRequest, kReply, kEvent, kError };

// What one input earns from its decoder: the ParseErrorCode it is rejected
// with, or the bytes it consumed plus its re-encoding.
std::vector<uint8_t> Verdict(FrameKind kind, std::span<const uint8_t> input) {
  ParseError error;
  size_t consumed = 0;
  std::vector<uint8_t> again;
  uint16_t sequence = 0;
  switch (kind) {
    case FrameKind::kRequest: {
      Request request;
      consumed = DecodeRequest(input, &request, &error);
      if (consumed > 0) again = EncodeRequestBytes(request);
      break;
    }
    case FrameKind::kReply: {
      Reply reply;
      consumed = DecodeReply(input, &reply, &error, &sequence);
      if (consumed > 0) again = EncodeReplyBytes(reply, sequence);
      break;
    }
    case FrameKind::kEvent: {
      Event event;
      consumed = DecodeEvent(input, &event, &error, &sequence);
      if (consumed > 0) again = EncodeEventBytes(event, sequence);
      break;
    }
    case FrameKind::kError: {
      XError xerror;
      consumed = DecodeError(input, &xerror, &error);
      if (consumed > 0) again = EncodeErrorBytes(xerror);
      break;
    }
  }
  if (consumed == 0) {
    return {0xEE, static_cast<uint8_t>(error.code)};
  }
  std::vector<uint8_t> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(static_cast<uint64_t>(consumed) >> (8 * i)));
  }
  out.insert(out.end(), again.begin(), again.end());
  return out;
}

// FNV-1a over the verdicts of every proper prefix and every single-bit flip
// of every frame.
uint64_t SweepDigest(FrameKind kind, const std::vector<std::vector<uint8_t>>& frames) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const std::vector<uint8_t>& bytes) {
    for (uint8_t b : bytes) {
      hash = (hash ^ b) * 1099511628211ull;
    }
  };
  for (const std::vector<uint8_t>& frame : frames) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      mix(Verdict(kind, std::span<const uint8_t>(frame.data(), cut)));
    }
    std::vector<uint8_t> flipped = frame;
    for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      mix(Verdict(kind, flipped));
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  return hash;
}

std::vector<std::vector<uint8_t>> RequestFrames() {
  std::vector<std::vector<uint8_t>> frames;
  for (const Request& request : AllRequestExemplars()) {
    frames.push_back(EncodeRequestBytes(request));
  }
  return frames;
}

std::vector<std::vector<uint8_t>> ReplyFrames() {
  std::vector<std::vector<uint8_t>> frames;
  uint16_t sequence = 0x1200;
  for (const Reply& reply : AllReplyExemplars()) {
    frames.push_back(EncodeReplyBytes(reply, sequence++));
  }
  return frames;
}

std::vector<std::vector<uint8_t>> EventFrames() {
  std::vector<std::vector<uint8_t>> frames;
  uint16_t sequence = 0x3400;
  for (const Event& event : AllEventExemplars()) {
    frames.push_back(EncodeEventBytes(event, sequence++));
  }
  return frames;
}

void ExpectGoldenHex(const std::vector<std::vector<uint8_t>>& frames,
                     const std::vector<std::string>& golden) {
  ASSERT_EQ(frames.size(), golden.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(GoldenHex(frames[i]), golden[i]) << "exemplar " << i;
  }
}

const std::vector<std::string> kGoldenRequestHex = {
    "01010500010000000180ff7fffff0100ffff0100",
    "010005[00*17]",
    "04000200ffffffff",
    "0800020007000000",
    "0a00020007000000",
    "0700040003000000040000000180ff7f",
    "0c0003000900000000000000",
    "0c000a00090000007f0000000180ffffff7f00000100000002000000050000000b00000004000000",
    "0c000400020000004000000003000000",
    "0e00030005000000ffffffff",
    "0601020006000000",
    "120206000800000002000000030000000800000000000000",
    "120006040800000002000000030000002000000000100000[ab*4096]",
    "130003000800000002000000",
    "19000b000c000000000040001c0100000c0000002c00000015cd5b07[00*16]",
    "2a00020000000000",
    "1c0504000d0000001100000022000000",
    "1c0004000d[00*11]",
    "1d0103000d00000000000000",
    "3d0002000e000000",
    "800003000f00000023000000",
    "810003001000000000000000",
    "81000600100000000e007175657374696f6e5f6172726f77",
    "82000600110000000180ff7f500018007e00000000000000",
    "82021f001100000001000200030004002000640000000000[78*100]",
    "82040e001100000000000000080004002000000008000400[01*32]",
    "830003001200000000000000",
    "830007001200000002000000000000000a000a000180ff7fffffffff",
    "8400020013000000",
    "8501020014000000",
    "0300020015000000",
    "86000200ffffffff",
    "0f00020016000000",
    "1000020000000000",
    "100005000c000000574d5f50524f544f434f4c53",
    "1000020400100000[61*4096]",
    "110002001f000000",
    "140003001700000020000000",
    "2800040018000000190000000180ff7f",
    "87000100",
    "88000100",
};
const std::vector<std::string> kGoldenReplyHex = {
    "01030012000000000100000001020100ffffffffffff[00*10]",
    "01030112[00*28]",
    "0186021200000000020000000180ff7fffff010007[00*11]",
    "010f031200000000030000000100000002[00*15]",
    "010f0412f2010000030000000100000002000000f40100006400000065000000660000006700000068000000"
        "690000006a0000006b0000006c0000006d0000006e0000006f00000070000000710000007200000073000000"
        "7400000075000000760000007700000078000000790000007a0000007b0000007c0000007d0000007e000000"
        "7f00000080000000810000008200000083000000840000008500000086000000870000008800000089000000"
        "8a0000008b0000008c0000008d0000008e0000008f0000009000000091000000920000009300000094000000"
        "95000000960000009700000098000000990000009a0000009b0000009c0000009d0000009e0000009f000000"
        "a0000000a1000000a2000000a3000000a4000000a5000000a6000000a7000000a8000000a9000000aa000000"
        "ab000000ac000000ad000000ae000000af000000b0000000b1000000b2000000b3000000b4000000b5000000"
        "b6000000b7000000b8000000b9000000ba000000bb000000bc000000bd000000be000000bf000000c0000000"
        "c1000000c2000000c3000000c4000000c5000000c6000000c7000000c8000000c9000000ca000000cb000000"
        "cc000000cd000000ce000000cf000000d0000000d1000000d2000000d3000000d4000000d5000000d6000000"
        "d7000000d8000000d9000000da000000db000000dc000000dd000000de000000df000000e0000000e1000000"
        "e2000000e3000000e4000000e5000000e6000000e7000000e8000000e9000000ea000000eb000000ec000000"
        "ed000000ee000000ef000000f0000000f1000000f2000000f3000000f4000000f5000000f6000000f7000000"
        "f8000000f9000000fa000000fb000000fc000000fd000000fe000000ff000000000100000101000002010000"
        "030100000401000005010000060100000701000008010000090100000a0100000b0100000c0100000d010000"
        "0e0100000f010000100100001101000012010000130100001401000015010000160100001701000018010000"
        "190100001a0100001b0100001c0100001d0100001e0100001f01000020010000210100002201000023010000"
        "2401000025010000260100002701000028010000290100002a0100002b0100002c0100002d0100002e010000"
        "2f01000030010000310100003201000033010000340100003501000036010000370100003801000039010000"
        "3a0100003b0100003c0100003d0100003e0100003f0100004001000041010000420100004301000044010000"
        "45010000460100004701000048010000490100004a0100004b0100004c0100004d0100004e0100004f010000"
        "500100005101000052010000530100005401000055010000560100005701000058010000590100005a010000"
        "5b0100005c0100005d0100005e0100005f010000600100006101000062010000630100006401000065010000"
        "660100006701000068010000690100006a0100006b0100006c0100006d0100006e0100006f01000070010000"
        "7101000072010000730100007401000075010000760100007701000078010000790100007a0100007b010000"
        "7c0100007d0100007e0100007f01000080010000810100008201000083010000840100008501000086010000"
        "8701000088010000890100008a0100008b0100008c0100008d0100008e0100008f0100009001000091010000"
        "92010000930100009401000095010000960100009701000098010000990100009a0100009b0100009c010000"
        "9d0100009e0100009f010000a0010000a1010000a2010000a3010000a4010000a5010000a6010000a7010000"
        "a8010000a9010000aa010000ab010000ac010000ad010000ae010000af010000b0010000b1010000b2010000"
        "b3010000b4010000b5010000b6010000b7010000b8010000b9010000ba010000bb010000bc010000bd010000"
        "be010000bf010000c0010000c1010000c2010000c3010000c4010000c5010000c6010000c7010000c8010000"
        "c9010000ca010000cb010000cc010000cd010000ce010000cf010000d0010000d1010000d2010000d3010000"
        "d4010000d5010000d6010000d7010000d8010000d9010000da010000db010000dc010000dd010000de010000"
        "df010000e0010000e1010000e2010000e3010000e4010000e5010000e6010000e7010000e8010000e9010000"
        "ea010000eb010000ec010000ed010000ee010000ef010000f0010000f1010000f2010000f3010000f4010000"
        "f5010000f6010000f7010000f8010000f9010000fa010000fb010000fc010000fd010000fe010000ff010000"
        "000200000102000002020000030200000402000005020000060200000702000008020000090200000a020000"
        "0b0200000c0200000d0200000e0200000f020000100200001102000012020000130200001402000015020000"
        "160200001702000018020000190200001a0200001b0200001c0200001d0200001e0200001f02000020020000"
        "2102000022020000230200002402000025020000260200002702000028020000290200002a0200002b020000"
        "2c0200002d0200002e0200002f02000030020000310200003202000033020000340200003502000036020000"
        "3702000038020000390200003a0200003b0200003c0200003d0200003e0200003f0200004002000041020000"
        "42020000430200004402000045020000460200004702000048020000490200004a0200004b0200004c020000"
        "4d0200004e0200004f0200005002000051020000520200005302000054020000550200005602000057020000",
    "0110051200000000ffffffff[00*20]",
    "011106120000000005[00*23]",
    "0111071200000000050000001000574d5f44454c4554455f57494e444f570000",
    "01110812fc030000060000000010[6e*4096]0000",
    "011409120000000007000000080000000000000008[00*11]",
    "01140a12ff0300000700000008000000090000002001000000100000[cd*4096]",
    "01140b12000000000700000008000000090000001001[00*10]",
    "01280c12000000000180ffffff7f[00*18]",
    "01870d12[00*28]",
    "01870e12010000000200000001000000500018000100000002000000ffff010000000000",
    "01880f12[00*28]",
    "018810120000000078563412[00*20]",
    "0188111200000000ffffffff[00*20]",
};
const std::vector<std::string> kGoldenEventHex = {
    "040500340100000002000000150000000180ff7f0300fcfffecaefbeadde0000",
    "0501013401[00*27]",
    "0600023401000000000000000100000005000600070008[00*9]",
    "02000334020000000dff000004[00*19]",
    "030004340200000071[00*23]",
    "0700053403000000010001[00*21]",
    "0800063403[00*27]",
    "0c0007340400000000000000[ff*8][00*12]",
    "10010834050000000600000001000200030004[00*13]",
    "110009340700000008[00*23]",
    "14000a34090000000a[00*23]",
    "13010b340b0000000c[00*23]",
    "12010c340d0000000e[00*23]",
    "15000d340f00000010000000110000009cff64[00*13]",
    "17040e3412000000130000001400000009000800070006000100410000000000",
    "16030f34150000001600000017000000fffffeff1e0028000300000000000000",
    "1b0110341800000019[00*23]",
    "1c0111341a0000001b00000063[00*19]",
    "212012341c0000001d0000000100000002000000030000000400000005000000",
    "210813341c0000001d[00*23]",
    "090014341e[00*27]",
    "0a0015341f[00*27]",
    "400116342000000000000000050005[00*17]",
};
const std::string kGoldenErrorHex = "0007b7043412cdabb70400000000000013[00*15]";
constexpr uint64_t kRequestSweepDigest = 0xc06c08d3d2836f06ull;
constexpr uint64_t kReplySweepDigest = 0x553e07318477ac43ull;
constexpr uint64_t kEventSweepDigest = 0xc446102ea19dfddeull;
constexpr uint64_t kErrorSweepDigest = 0x1759017264bbcbefull;

TEST(WireGolden, ExemplarFramesAreByteExact) {
  ExpectGoldenHex(RequestFrames(), kGoldenRequestHex);
  ExpectGoldenHex(ReplyFrames(), kGoldenReplyHex);
  ExpectGoldenHex(EventFrames(), kGoldenEventHex);
  EXPECT_EQ(GoldenHex(EncodeErrorBytes(GoldenError())), kGoldenErrorHex);
}

TEST(WireGolden, TruncationAndBitFlipSweepDigest) {
  EXPECT_EQ(SweepDigest(FrameKind::kRequest, RequestFrames()), kRequestSweepDigest);
  EXPECT_EQ(SweepDigest(FrameKind::kReply, ReplyFrames()), kReplySweepDigest);
  EXPECT_EQ(SweepDigest(FrameKind::kEvent, EventFrames()), kEventSweepDigest);
  EXPECT_EQ(SweepDigest(FrameKind::kError, {EncodeErrorBytes(GoldenError())}),
            kErrorSweepDigest);
}

}  // namespace
}  // namespace xproto
