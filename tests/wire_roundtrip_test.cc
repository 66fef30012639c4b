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

}  // namespace
}  // namespace xproto
