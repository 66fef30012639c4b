#include "src/xproto/wire.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace xproto {

namespace {

// Padded-to-4 size of `n` bytes.
constexpr size_t Pad4(size_t n) { return (n + 3u) & ~size_t{3}; }

ParseError MakeError(ParseErrorCode code, size_t offset, uint8_t opcode,
                     std::string detail) {
  ParseError error;
  error.code = code;
  error.offset = offset;
  error.opcode = opcode;
  error.detail = std::move(detail);
  return error;
}

}  // namespace

// ---- Parse-error text -------------------------------------------------------

std::string ParseErrorCodeName(ParseErrorCode code) {
  switch (code) {
    case ParseErrorCode::kTruncated:
      return "Truncated";
    case ParseErrorCode::kBadOpcode:
      return "BadOpcode";
    case ParseErrorCode::kBadLength:
      return "BadLength";
    case ParseErrorCode::kOversized:
      return "Oversized";
    case ParseErrorCode::kBadValue:
      return "BadValue";
  }
  return "Truncated";
}

std::string ParseErrorText(const ParseError& error) {
  std::ostringstream out;
  out << ParseErrorCodeName(error.code) << " at offset " << error.offset << " (opcode "
      << static_cast<int>(error.opcode) << ")";
  if (!error.detail.empty()) {
    out << ": " << error.detail;
  }
  return out.str();
}

// ---- WireReader -------------------------------------------------------------

uint8_t WireReader::U8() {
  if (!ok_ || data_.size() - offset_ < 1) {
    ok_ = false;
    return 0;
  }
  return data_[offset_++];
}

uint16_t WireReader::U16() {
  if (!ok_ || data_.size() - offset_ < 2) {
    ok_ = false;
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data_[offset_]) |
               static_cast<uint16_t>(data_[offset_ + 1]) << 8;
  offset_ += 2;
  return v;
}

uint32_t WireReader::U32() {
  if (!ok_ || data_.size() - offset_ < 4) {
    ok_ = false;
    return 0;
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = v << 8 | data_[offset_ + static_cast<size_t>(i)];
  }
  offset_ += 4;
  return v;
}

uint64_t WireReader::U64() {
  if (!ok_ || data_.size() - offset_ < 8) {
    ok_ = false;
    return 0;
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | data_[offset_ + static_cast<size_t>(i)];
  }
  offset_ += 8;
  return v;
}

std::span<const uint8_t> WireReader::Bytes(size_t count) {
  if (!ok_ || data_.size() - offset_ < count) {
    ok_ = false;
    return {};
  }
  std::span<const uint8_t> view = data_.subspan(offset_, count);
  offset_ += count;
  return view;
}

std::string WireReader::String(size_t count) {
  std::span<const uint8_t> view = Bytes(count);
  return std::string(view.begin(), view.end());
}

void WireReader::Skip(size_t count) {
  if (!ok_ || data_.size() - offset_ < count) {
    ok_ = false;
    return;
  }
  offset_ += count;
}

void WireReader::AlignSkip() { Skip(Pad4(offset_) - offset_); }

// ---- WireWriter -------------------------------------------------------------

void WireWriter::U16(uint16_t v) {
  bytes_.push_back(static_cast<uint8_t>(v));
  bytes_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::Bytes(std::span<const uint8_t> data) {
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void WireWriter::String(const std::string& s) {
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void WireWriter::AlignPad() {
  while (bytes_.size() % 4 != 0) {
    bytes_.push_back(0);
  }
}

void WireWriter::PatchU16(size_t offset, uint16_t v) {
  bytes_[offset] = static_cast<uint8_t>(v);
  bytes_[offset + 1] = static_cast<uint8_t>(v >> 8);
}

void WireWriter::PatchU32(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void WireWriter::BeginRequest(uint8_t opcode, uint8_t detail) {
  frame_start_ = bytes_.size();
  U8(opcode);
  U8(detail);
  U16(0);  // Length, patched by CloseRequest.
}

void WireWriter::CloseRequest() {
  AlignPad();
  size_t frame_bytes = bytes_.size() - frame_start_;
  PatchU16(frame_start_ + 2, static_cast<uint16_t>(frame_bytes / 4));
  frame_start_ = SIZE_MAX;
}

// ---- Request metadata -------------------------------------------------------

namespace {

struct OpcodeInfo {
  WireOpcode opcode;
  RequestCode request_code;
  const char* name;
};

template <typename T>
OpcodeInfo InfoFor();

#define WIRE_INFO(TYPE, OPCODE, REQCODE)                                     \
  template <>                                                                \
  OpcodeInfo InfoFor<TYPE>() {                                               \
    return {WireOpcode::OPCODE, RequestCode::REQCODE, #TYPE};                \
  }

WIRE_INFO(CreateWindowRequest, kCreateWindow, kCreateWindow)
WIRE_INFO(DestroyWindowRequest, kDestroyWindow, kDestroyWindow)
WIRE_INFO(MapWindowRequest, kMapWindow, kMapWindow)
WIRE_INFO(UnmapWindowRequest, kUnmapWindow, kUnmapWindow)
WIRE_INFO(ReparentWindowRequest, kReparentWindow, kReparentWindow)
WIRE_INFO(ConfigureWindowRequest, kConfigureWindow, kConfigureWindow)
WIRE_INFO(SelectInputRequest, kSelectInput, kSelectInput)
WIRE_INFO(ChangeSaveSetRequest, kChangeSaveSet, kChangeSaveSet)
WIRE_INFO(ChangePropertyRequest, kChangeProperty, kChangeProperty)
WIRE_INFO(DeletePropertyRequest, kDeleteProperty, kDeleteProperty)
WIRE_INFO(SendEventRequest, kSendEvent, kSendEvent)
WIRE_INFO(SetInputFocusRequest, kSetInputFocus, kSetInputFocus)
WIRE_INFO(GrabButtonRequest, kGrabButton, kGrabButton)
WIRE_INFO(UngrabButtonRequest, kUngrabButton, kUngrabButton)
WIRE_INFO(ClearWindowRequest, kClearWindow, kClearWindow)
WIRE_INFO(SetWindowBackgroundRequest, kSetWindowBackground, kSetWindowBackground)
WIRE_INFO(SetCursorRequest, kSetCursor, kSetCursor)
WIRE_INFO(DrawRequest, kDraw, kDraw)
WIRE_INFO(ShapeRegionRequest, kShapeRegion, kShapeOp)
WIRE_INFO(ShapeClearRequest, kShapeClear, kShapeOp)
WIRE_INFO(ShapeSelectRequest, kShapeSelect, kShapeOp)
WIRE_INFO(GetWindowAttributesRequest, kGetWindowAttributes, kGetWindowAttributes)
WIRE_INFO(GetGeometryRequest, kGetGeometry, kGetGeometry)
WIRE_INFO(QueryTreeRequest, kQueryTree, kQueryTree)
WIRE_INFO(InternAtomRequest, kInternAtom, kInternAtom)
WIRE_INFO(GetAtomNameRequest, kGetAtomName, kGetAtomName)
WIRE_INFO(GetPropertyRequest, kGetProperty, kGetProperty)
WIRE_INFO(TranslateCoordinatesRequest, kTranslateCoordinates, kTranslateCoordinates)
WIRE_INFO(QueryScreensRequest, kQueryScreens, kQueryScreens)
WIRE_INFO(QueryLastCreatedRequest, kQueryLastCreated, kQueryLastCreated)

#undef WIRE_INFO

}  // namespace

WireOpcode RequestOpcode(const Request& request) {
  return std::visit(
      [](const auto& r) { return InfoFor<std::decay_t<decltype(r)>>().opcode; }, request);
}

std::string WireRequestName(const Request& request) {
  return std::visit(
      [](const auto& r) { return std::string(InfoFor<std::decay_t<decltype(r)>>().name); },
      request);
}

RequestCode RequestCodeOf(const Request& request) {
  return std::visit(
      [](const auto& r) { return InfoFor<std::decay_t<decltype(r)>>().request_code; },
      request);
}

RequestCode RequestCodeForOpcode(uint8_t opcode) {
  switch (static_cast<WireOpcode>(opcode)) {
    case WireOpcode::kCreateWindow:
      return RequestCode::kCreateWindow;
    case WireOpcode::kDestroyWindow:
      return RequestCode::kDestroyWindow;
    case WireOpcode::kChangeSaveSet:
      return RequestCode::kChangeSaveSet;
    case WireOpcode::kReparentWindow:
      return RequestCode::kReparentWindow;
    case WireOpcode::kMapWindow:
      return RequestCode::kMapWindow;
    case WireOpcode::kUnmapWindow:
      return RequestCode::kUnmapWindow;
    case WireOpcode::kConfigureWindow:
      return RequestCode::kConfigureWindow;
    case WireOpcode::kSelectInput:
      return RequestCode::kSelectInput;
    case WireOpcode::kChangeProperty:
      return RequestCode::kChangeProperty;
    case WireOpcode::kDeleteProperty:
      return RequestCode::kDeleteProperty;
    case WireOpcode::kSendEvent:
      return RequestCode::kSendEvent;
    case WireOpcode::kGrabButton:
      return RequestCode::kGrabButton;
    case WireOpcode::kUngrabButton:
      return RequestCode::kUngrabButton;
    case WireOpcode::kSetInputFocus:
      return RequestCode::kSetInputFocus;
    case WireOpcode::kClearWindow:
      return RequestCode::kClearWindow;
    case WireOpcode::kSetWindowBackground:
      return RequestCode::kSetWindowBackground;
    case WireOpcode::kSetCursor:
      return RequestCode::kSetCursor;
    case WireOpcode::kDraw:
      return RequestCode::kDraw;
    case WireOpcode::kShapeRegion:
    case WireOpcode::kShapeClear:
    case WireOpcode::kShapeSelect:
      return RequestCode::kShapeOp;
    case WireOpcode::kGetWindowAttributes:
      return RequestCode::kGetWindowAttributes;
    case WireOpcode::kGetGeometry:
      return RequestCode::kGetGeometry;
    case WireOpcode::kQueryTree:
      return RequestCode::kQueryTree;
    case WireOpcode::kInternAtom:
      return RequestCode::kInternAtom;
    case WireOpcode::kGetAtomName:
      return RequestCode::kGetAtomName;
    case WireOpcode::kGetProperty:
      return RequestCode::kGetProperty;
    case WireOpcode::kTranslateCoordinates:
      return RequestCode::kTranslateCoordinates;
    case WireOpcode::kQueryScreens:
      return RequestCode::kQueryScreens;
    case WireOpcode::kQueryLastCreated:
      return RequestCode::kQueryLastCreated;
  }
  return RequestCode::kNone;
}

// ---- Request encoding -------------------------------------------------------

namespace {

void PutRect(const xbase::Rect& r, WireWriter* w) {
  w->I16(static_cast<int16_t>(r.x));
  w->I16(static_cast<int16_t>(r.y));
  w->U16(static_cast<uint16_t>(r.width));
  w->U16(static_cast<uint16_t>(r.height));
}

xbase::Rect GetRect(WireReader* r) {
  xbase::Rect rect;
  rect.x = r->I16();
  rect.y = r->I16();
  rect.width = r->U16();
  rect.height = r->U16();
  return rect;
}

struct Encoder {
  WireWriter* w;

  void Frame(WireOpcode opcode, uint8_t detail) {
    w->BeginRequest(static_cast<uint8_t>(opcode), detail);
  }

  void operator()(const CreateWindowRequest& r) {
    Frame(WireOpcode::kCreateWindow, static_cast<uint8_t>(r.window_class));
    w->U32(r.parent);
    PutRect(r.geometry, w);
    w->U16(static_cast<uint16_t>(r.border_width));
    w->U8(r.override_redirect ? 1 : 0);
  }
  void operator()(const DestroyWindowRequest& r) {
    Frame(WireOpcode::kDestroyWindow, 0);
    w->U32(r.window);
  }
  void operator()(const MapWindowRequest& r) {
    Frame(WireOpcode::kMapWindow, 0);
    w->U32(r.window);
  }
  void operator()(const UnmapWindowRequest& r) {
    Frame(WireOpcode::kUnmapWindow, 0);
    w->U32(r.window);
  }
  void operator()(const ReparentWindowRequest& r) {
    Frame(WireOpcode::kReparentWindow, 0);
    w->U32(r.window);
    w->U32(r.parent);
    w->I16(static_cast<int16_t>(r.position.x));
    w->I16(static_cast<int16_t>(r.position.y));
  }
  void operator()(const ConfigureWindowRequest& r) {
    Frame(WireOpcode::kConfigureWindow, 0);
    w->U32(r.window);
    w->U16(r.value_mask);
    w->U16(0);
    // LISTofVALUE: one 4-byte slot per set mask bit, canonical order.
    if (r.value_mask & kConfigX) w->I32(r.geometry.x);
    if (r.value_mask & kConfigY) w->I32(r.geometry.y);
    if (r.value_mask & kConfigWidth) w->U32(static_cast<uint32_t>(r.geometry.width));
    if (r.value_mask & kConfigHeight) w->U32(static_cast<uint32_t>(r.geometry.height));
    if (r.value_mask & kConfigBorderWidth) w->U32(static_cast<uint32_t>(r.border_width));
    if (r.value_mask & kConfigSibling) w->U32(r.sibling);
    if (r.value_mask & kConfigStackMode) w->U32(static_cast<uint32_t>(r.stack_mode));
  }
  void operator()(const SelectInputRequest& r) {
    Frame(WireOpcode::kSelectInput, 0);
    w->U32(r.window);
    w->U32(r.event_mask);
  }
  void operator()(const ChangeSaveSetRequest& r) {
    Frame(WireOpcode::kChangeSaveSet, r.add ? 0 : 1);
    w->U32(r.window);
  }
  void operator()(const ChangePropertyRequest& r) {
    Frame(WireOpcode::kChangeProperty, r.mode);
    w->U32(r.window);
    w->U32(r.property);
    w->U32(r.type);
    w->U8(static_cast<uint8_t>(r.format));
    w->U8(0);
    w->U16(0);
    w->U32(static_cast<uint32_t>(r.data.size()));
    w->Bytes(r.data);
  }
  void operator()(const DeletePropertyRequest& r) {
    Frame(WireOpcode::kDeleteProperty, 0);
    w->U32(r.window);
    w->U32(r.property);
  }
  void operator()(const SendEventRequest& r) {
    Frame(WireOpcode::kSendEvent, 0);
    w->U32(r.destination);
    w->U32(r.event_mask);
    EncodeEvent(r.event, 0, w);
  }
  void operator()(const SetInputFocusRequest& r) {
    Frame(WireOpcode::kSetInputFocus, 0);
    w->U32(r.window);
  }
  void operator()(const GrabButtonRequest& r) {
    Frame(WireOpcode::kGrabButton, static_cast<uint8_t>(r.button));
    w->U32(r.window);
    w->U32(r.modifiers);
    w->U32(r.event_mask);
  }
  void operator()(const UngrabButtonRequest& r) {
    Frame(WireOpcode::kUngrabButton, static_cast<uint8_t>(r.button));
    w->U32(r.window);
    w->U32(r.modifiers);
  }
  void operator()(const ClearWindowRequest& r) {
    Frame(WireOpcode::kClearWindow, 0);
    w->U32(r.window);
  }
  void operator()(const SetWindowBackgroundRequest& r) {
    Frame(WireOpcode::kSetWindowBackground, 0);
    w->U32(r.window);
    w->U8(static_cast<uint8_t>(r.background));
  }
  void operator()(const SetCursorRequest& r) {
    Frame(WireOpcode::kSetCursor, 0);
    w->U32(r.window);
    w->U16(static_cast<uint16_t>(r.name.size()));
    w->String(r.name);
  }
  void operator()(const DrawRequest& r) {
    Frame(WireOpcode::kDraw, r.kind);
    w->U32(r.window);
    PutRect(r.rect, w);
    w->U8(static_cast<uint8_t>(r.fill));
    w->U8(0);
    w->U16(static_cast<uint16_t>(r.text.size()));
    w->U16(static_cast<uint16_t>(r.bitmap_width));
    w->U16(static_cast<uint16_t>(r.bitmap_height));
    w->String(r.text);
    w->Bytes(r.bitmap_cells);
  }
  void operator()(const ShapeRegionRequest& r) {
    Frame(WireOpcode::kShapeRegion, 0);
    w->U32(r.window);
    w->U16(static_cast<uint16_t>(r.rects.size()));
    w->U16(0);
    for (const xbase::Rect& rect : r.rects) {
      PutRect(rect, w);
    }
  }
  void operator()(const ShapeClearRequest& r) {
    Frame(WireOpcode::kShapeClear, 0);
    w->U32(r.window);
  }
  void operator()(const ShapeSelectRequest& r) {
    Frame(WireOpcode::kShapeSelect, r.enable ? 1 : 0);
    w->U32(r.window);
  }
  void operator()(const GetWindowAttributesRequest& r) {
    Frame(WireOpcode::kGetWindowAttributes, 0);
    w->U32(r.window);
  }
  void operator()(const GetGeometryRequest& r) {
    Frame(WireOpcode::kGetGeometry, 0);
    w->U32(r.window);
  }
  void operator()(const QueryTreeRequest& r) {
    Frame(WireOpcode::kQueryTree, 0);
    w->U32(r.window);
  }
  void operator()(const InternAtomRequest& r) {
    Frame(WireOpcode::kInternAtom, 0);
    w->U16(static_cast<uint16_t>(r.name.size()));
    w->U16(0);
    w->String(r.name);
  }
  void operator()(const GetAtomNameRequest& r) {
    Frame(WireOpcode::kGetAtomName, 0);
    w->U32(r.atom);
  }
  void operator()(const GetPropertyRequest& r) {
    Frame(WireOpcode::kGetProperty, 0);
    w->U32(r.window);
    w->U32(r.property);
  }
  void operator()(const TranslateCoordinatesRequest& r) {
    Frame(WireOpcode::kTranslateCoordinates, 0);
    w->U32(r.src);
    w->U32(r.dst);
    w->I16(static_cast<int16_t>(r.point.x));
    w->I16(static_cast<int16_t>(r.point.y));
  }
  void operator()(const QueryScreensRequest&) { Frame(WireOpcode::kQueryScreens, 0); }
  void operator()(const QueryLastCreatedRequest&) {
    Frame(WireOpcode::kQueryLastCreated, 0);
  }
};

}  // namespace

void EncodeRequest(const Request& request, WireWriter* writer) {
  std::visit(Encoder{writer}, request);
  writer->CloseRequest();
}

std::vector<uint8_t> EncodeRequestBytes(const Request& request) {
  WireWriter writer;
  EncodeRequest(request, &writer);
  return writer.Take();
}

// ---- Request decoding -------------------------------------------------------

namespace {

// Per-opcode payload decoders.  Each reads from a reader scoped to exactly
// the frame payload (header excluded) and returns the decoded request, or a
// ParseError via `*error` (offset/opcode filled in by the caller).  The
// caller verifies reader.ok() and that the frame was fully consumed.

std::optional<Request> DecodePayload(WireOpcode opcode, uint8_t detail, WireReader& r,
                                     ParseErrorCode* code, std::string* detail_text) {
  auto fail = [&](ParseErrorCode c, const std::string& text) -> std::optional<Request> {
    *code = c;
    *detail_text = text;
    return std::nullopt;
  };

  switch (opcode) {
    case WireOpcode::kCreateWindow: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "window class not 0/1");
      }
      CreateWindowRequest out;
      out.window_class = static_cast<WindowClass>(detail);
      out.parent = r.U32();
      out.geometry = GetRect(&r);
      out.border_width = r.U16();
      out.override_redirect = r.U8() != 0;
      return out;
    }
    case WireOpcode::kDestroyWindow: {
      DestroyWindowRequest out;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kMapWindow: {
      MapWindowRequest out;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kUnmapWindow: {
      UnmapWindowRequest out;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kReparentWindow: {
      ReparentWindowRequest out;
      out.window = r.U32();
      out.parent = r.U32();
      out.position.x = r.I16();
      out.position.y = r.I16();
      return out;
    }
    case WireOpcode::kConfigureWindow: {
      ConfigureWindowRequest out;
      out.window = r.U32();
      out.value_mask = r.U16();
      r.Skip(2);
      if (out.value_mask >> 7 != 0) {
        return fail(ParseErrorCode::kBadValue, "unknown configure mask bits");
      }
      if (out.value_mask & kConfigX) out.geometry.x = r.I32();
      if (out.value_mask & kConfigY) out.geometry.y = r.I32();
      if (out.value_mask & kConfigWidth) out.geometry.width = static_cast<int>(r.U32());
      if (out.value_mask & kConfigHeight) out.geometry.height = static_cast<int>(r.U32());
      if (out.value_mask & kConfigBorderWidth) out.border_width = static_cast<int>(r.U32());
      if (out.value_mask & kConfigSibling) out.sibling = r.U32();
      if (out.value_mask & kConfigStackMode) {
        uint32_t mode = r.U32();
        if (mode > static_cast<uint32_t>(StackMode::kOpposite)) {
          return fail(ParseErrorCode::kBadValue, "stack mode out of range");
        }
        out.stack_mode = static_cast<StackMode>(mode);
      }
      return out;
    }
    case WireOpcode::kSelectInput: {
      SelectInputRequest out;
      out.window = r.U32();
      out.event_mask = r.U32();
      return out;
    }
    case WireOpcode::kChangeSaveSet: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "save-set mode not 0/1");
      }
      ChangeSaveSetRequest out;
      out.add = detail == 0;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kChangeProperty: {
      if (detail > 2) {
        return fail(ParseErrorCode::kBadValue, "property mode not 0/1/2");
      }
      ChangePropertyRequest out;
      out.mode = detail;
      out.window = r.U32();
      out.property = r.U32();
      out.type = r.U32();
      out.format = r.U8();
      if (r.ok() && out.format != 8 && out.format != 16 && out.format != 32) {
        return fail(ParseErrorCode::kBadValue, "format not 8/16/32");
      }
      r.Skip(3);
      uint32_t data_len = r.U32();
      // The embedded count must fit the frame that carries it — the classic
      // length-field lie.  Checked against remaining() before Bytes() so an
      // attacker-controlled count never becomes an allocation or a read.
      if (r.ok() && data_len > r.remaining()) {
        return fail(ParseErrorCode::kBadLength, "property data overruns frame");
      }
      std::span<const uint8_t> data = r.Bytes(data_len);
      out.data.assign(data.begin(), data.end());
      return out;
    }
    case WireOpcode::kDeleteProperty: {
      DeletePropertyRequest out;
      out.window = r.U32();
      out.property = r.U32();
      return out;
    }
    case WireOpcode::kSendEvent: {
      SendEventRequest out;
      out.destination = r.U32();
      out.event_mask = r.U32();
      std::span<const uint8_t> frame = r.Bytes(kEventWireBytes);
      if (!r.ok()) {
        return fail(ParseErrorCode::kTruncated, "embedded event frame short");
      }
      ParseError event_error;
      if (DecodeEvent(frame, &out.event, &event_error) == 0) {
        return fail(event_error.code, "embedded event: " + event_error.detail);
      }
      return out;
    }
    case WireOpcode::kSetInputFocus: {
      SetInputFocusRequest out;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kGrabButton: {
      if (detail > kMaxButton) {
        return fail(ParseErrorCode::kBadValue, "button out of range");
      }
      GrabButtonRequest out;
      out.button = detail;
      out.window = r.U32();
      out.modifiers = r.U32();
      out.event_mask = r.U32();
      return out;
    }
    case WireOpcode::kUngrabButton: {
      if (detail > kMaxButton) {
        return fail(ParseErrorCode::kBadValue, "button out of range");
      }
      UngrabButtonRequest out;
      out.button = detail;
      out.window = r.U32();
      out.modifiers = r.U32();
      return out;
    }
    case WireOpcode::kClearWindow: {
      ClearWindowRequest out;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kSetWindowBackground: {
      SetWindowBackgroundRequest out;
      out.window = r.U32();
      out.background = static_cast<char>(r.U8());
      return out;
    }
    case WireOpcode::kSetCursor: {
      SetCursorRequest out;
      out.window = r.U32();
      uint16_t len = r.U16();
      if (r.ok() && len > kMaxWireStringBytes) {
        return fail(ParseErrorCode::kOversized, "cursor name over cap");
      }
      if (r.ok() && len > r.remaining()) {
        return fail(ParseErrorCode::kBadLength, "cursor name overruns frame");
      }
      out.name = r.String(len);
      return out;
    }
    case WireOpcode::kDraw: {
      if (detail > 4) {  // xserver::DrawOp::Kind has 5 values.
        return fail(ParseErrorCode::kBadValue, "draw kind out of range");
      }
      DrawRequest out;
      out.kind = detail;
      out.window = r.U32();
      out.rect = GetRect(&r);
      out.fill = static_cast<char>(r.U8());
      r.Skip(1);
      uint16_t text_len = r.U16();
      out.bitmap_width = r.U16();
      out.bitmap_height = r.U16();
      if (r.ok() && text_len > kMaxWireStringBytes) {
        return fail(ParseErrorCode::kOversized, "draw text over cap");
      }
      uint64_t cells = static_cast<uint64_t>(out.bitmap_width) *
                       static_cast<uint64_t>(out.bitmap_height);
      if (r.ok() && cells > kMaxWireBitmapCells) {
        return fail(ParseErrorCode::kOversized, "bitmap over cell cap");
      }
      if (r.ok() && static_cast<uint64_t>(text_len) + cells > r.remaining()) {
        return fail(ParseErrorCode::kBadLength, "draw payload overruns frame");
      }
      out.text = r.String(text_len);
      std::span<const uint8_t> cell_bytes = r.Bytes(static_cast<size_t>(cells));
      out.bitmap_cells.assign(cell_bytes.begin(), cell_bytes.end());
      return out;
    }
    case WireOpcode::kShapeRegion: {
      ShapeRegionRequest out;
      out.window = r.U32();
      uint16_t count = r.U16();
      r.Skip(2);
      if (r.ok() && count > kMaxWireRects) {
        return fail(ParseErrorCode::kOversized, "shape rect count over cap");
      }
      if (r.ok() && static_cast<size_t>(count) * 8 > r.remaining()) {
        return fail(ParseErrorCode::kBadLength, "shape rects overrun frame");
      }
      out.rects.reserve(count);
      for (uint16_t i = 0; i < count && r.ok(); ++i) {
        out.rects.push_back(GetRect(&r));
      }
      return out;
    }
    case WireOpcode::kShapeClear: {
      ShapeClearRequest out;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kShapeSelect: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "shape select flag not 0/1");
      }
      ShapeSelectRequest out;
      out.enable = detail == 1;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kGetWindowAttributes: {
      GetWindowAttributesRequest out;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kGetGeometry: {
      GetGeometryRequest out;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kQueryTree: {
      QueryTreeRequest out;
      out.window = r.U32();
      return out;
    }
    case WireOpcode::kInternAtom: {
      InternAtomRequest out;
      uint16_t len = r.U16();
      r.Skip(2);
      if (r.ok() && len > kMaxWireStringBytes) {
        return fail(ParseErrorCode::kOversized, "atom name over cap");
      }
      if (r.ok() && len > r.remaining()) {
        return fail(ParseErrorCode::kBadLength, "atom name overruns frame");
      }
      out.name = r.String(len);
      return out;
    }
    case WireOpcode::kGetAtomName: {
      GetAtomNameRequest out;
      out.atom = r.U32();
      return out;
    }
    case WireOpcode::kGetProperty: {
      GetPropertyRequest out;
      out.window = r.U32();
      out.property = r.U32();
      return out;
    }
    case WireOpcode::kTranslateCoordinates: {
      TranslateCoordinatesRequest out;
      out.src = r.U32();
      out.dst = r.U32();
      out.point.x = r.I16();
      out.point.y = r.I16();
      return out;
    }
    case WireOpcode::kQueryScreens: {
      return QueryScreensRequest{};
    }
    case WireOpcode::kQueryLastCreated: {
      return QueryLastCreatedRequest{};
    }
  }
  return fail(ParseErrorCode::kBadOpcode, "opcode not implemented");
}

}  // namespace

size_t DecodeRequest(std::span<const uint8_t> buffer, Request* out, ParseError* error) {
  if (buffer.size() < 4) {
    *error = MakeError(ParseErrorCode::kTruncated, 0, buffer.empty() ? 0 : buffer[0],
                       "buffer shorter than request header");
    return 0;
  }
  uint8_t opcode = buffer[0];
  uint8_t detail = buffer[1];
  size_t frame_bytes =
      (static_cast<size_t>(buffer[2]) | static_cast<size_t>(buffer[3]) << 8) * 4;
  if (frame_bytes < 4) {
    *error = MakeError(ParseErrorCode::kBadLength, 0, opcode,
                       "frame length smaller than its header");
    return 0;
  }
  if (frame_bytes > kMaxRequestBytes) {
    *error = MakeError(ParseErrorCode::kOversized, 0, opcode,
                       "frame length exceeds kMaxRequestBytes");
    return 0;
  }
  if (frame_bytes > buffer.size()) {
    *error = MakeError(ParseErrorCode::kTruncated, 0, opcode,
                       "frame extends past end of buffer");
    return 0;
  }

  WireReader reader(buffer.subspan(4, frame_bytes - 4));
  ParseErrorCode code = ParseErrorCode::kBadValue;
  std::string detail_text;
  std::optional<Request> request =
      DecodePayload(static_cast<WireOpcode>(opcode), detail, reader, &code, &detail_text);
  if (!request.has_value()) {
    *error = MakeError(code, 0, opcode, detail_text);
    return 0;
  }
  if (!reader.ok()) {
    *error = MakeError(ParseErrorCode::kBadLength, 0, opcode,
                       "payload shorter than the request needs");
    return 0;
  }
  // Strict framing: the length field must be exactly the padded size of what
  // the payload decoder consumed.  A frame padded out further than that is a
  // length-field lie, not slack.
  size_t consumed = Pad4(4 + reader.offset());
  if (consumed != frame_bytes) {
    *error = MakeError(ParseErrorCode::kBadLength, 0, opcode,
                       "frame length disagrees with payload size");
    return 0;
  }
  *out = std::move(*request);
  return frame_bytes;
}

// ---- Reply metadata ---------------------------------------------------------

namespace {

struct ReplyInfo {
  WireOpcode opcode;
  const char* name;
};

template <typename T>
ReplyInfo ReplyInfoFor();

#define WIRE_REPLY_INFO(TYPE, OPCODE)        \
  template <>                                \
  ReplyInfo ReplyInfoFor<TYPE>() {           \
    return {WireOpcode::OPCODE, #TYPE};      \
  }

WIRE_REPLY_INFO(AttributesReply, kGetWindowAttributes)
WIRE_REPLY_INFO(GeometryReply, kGetGeometry)
WIRE_REPLY_INFO(TreeReply, kQueryTree)
WIRE_REPLY_INFO(AtomReply, kInternAtom)
WIRE_REPLY_INFO(AtomNameReply, kGetAtomName)
WIRE_REPLY_INFO(PropertyReply, kGetProperty)
WIRE_REPLY_INFO(CoordinatesReply, kTranslateCoordinates)
WIRE_REPLY_INFO(ScreensReply, kQueryScreens)
WIRE_REPLY_INFO(LastCreatedReply, kQueryLastCreated)

#undef WIRE_REPLY_INFO

}  // namespace

WireOpcode ReplyOpcode(const Reply& reply) {
  return std::visit(
      [](const auto& r) { return ReplyInfoFor<std::decay_t<decltype(r)>>().opcode; }, reply);
}

std::string WireReplyName(const Reply& reply) {
  return std::visit(
      [](const auto& r) { return std::string(ReplyInfoFor<std::decay_t<decltype(r)>>().name); },
      reply);
}

// ---- Reply encoding ---------------------------------------------------------

namespace {

struct ReplyEncoder {
  WireWriter* w;

  void operator()(const AttributesReply& r) {
    w->U32(r.window);
    w->U8(static_cast<uint8_t>(r.window_class));
    w->U8(static_cast<uint8_t>(r.map_state));
    w->U8(r.override_redirect ? 1 : 0);
    w->U8(0);
    w->U32(r.all_event_masks);
    w->U16(static_cast<uint16_t>(r.border_width));
  }
  void operator()(const GeometryReply& r) {
    w->U32(r.window);
    PutRect(r.geometry, w);
    w->U16(static_cast<uint16_t>(r.border_width));
  }
  void operator()(const TreeReply& r) {
    w->U32(r.window);
    w->U32(r.root);
    w->U32(r.parent);
    size_t count = std::min(r.children.size(), kMaxReplyChildren);
    w->U32(static_cast<uint32_t>(count));
    for (size_t i = 0; i < count; ++i) {
      w->U32(r.children[i]);
    }
  }
  void operator()(const AtomReply& r) { w->U32(r.atom); }
  void operator()(const AtomNameReply& r) {
    w->U32(r.atom);
    size_t len = std::min(r.name.size(), kMaxWireStringBytes);
    w->U16(static_cast<uint16_t>(len));
    w->String(r.name.substr(0, len));
  }
  void operator()(const PropertyReply& r) {
    w->U32(r.window);
    w->U32(r.property);
    w->U32(r.type);
    w->U8(static_cast<uint8_t>(r.format));
    w->U8(r.found ? 1 : 0);
    w->U16(0);
    size_t len = std::min(r.data.size(), kMaxReplyPropertyBytes);
    w->U32(static_cast<uint32_t>(len));
    w->Bytes(std::span<const uint8_t>(r.data.data(), len));
  }
  void operator()(const CoordinatesReply& r) {
    w->I32(r.position.x);
    w->I32(r.position.y);
  }
  void operator()(const ScreensReply& r) {
    size_t count = std::min(r.screens.size(), kMaxReplyChildren);
    w->U32(static_cast<uint32_t>(count));
    for (size_t i = 0; i < count; ++i) {
      const ScreensReply::Screen& s = r.screens[i];
      w->U32(s.root);
      w->U16(static_cast<uint16_t>(s.width));
      w->U16(static_cast<uint16_t>(s.height));
      w->U8(s.monochrome ? 1 : 0);
      w->U8(0);
      w->U16(0);
    }
  }
  void operator()(const LastCreatedReply& r) { w->U32(r.window); }
};

}  // namespace

void EncodeReply(const Reply& reply, uint16_t sequence, WireWriter* writer) {
  size_t start = writer->bytes().size();
  writer->U8(1);  // Replies are frame type 1, as in core X11.
  writer->U8(static_cast<uint8_t>(ReplyOpcode(reply)));
  writer->U16(sequence);
  writer->U32(0);  // Extra length, patched below.
  std::visit(ReplyEncoder{writer}, reply);
  // Pad to the 4-byte grid and to the 32-byte floor, then patch the length
  // field with the 4-byte units beyond the floor.
  while ((writer->bytes().size() - start) % 4 != 0 ||
         writer->bytes().size() - start < kMinReplyBytes) {
    writer->U8(0);
  }
  size_t frame_bytes = writer->bytes().size() - start;
  writer->PatchU32(start + 4, static_cast<uint32_t>((frame_bytes - kMinReplyBytes) / 4));
}

std::vector<uint8_t> EncodeReplyBytes(const Reply& reply, uint16_t sequence) {
  WireWriter writer;
  EncodeReply(reply, sequence, &writer);
  return writer.Take();
}

// ---- Reply decoding ---------------------------------------------------------

namespace {

std::optional<Reply> DecodeReplyPayload(WireOpcode opcode, WireReader& r,
                                        ParseErrorCode* code, std::string* detail_text) {
  auto fail = [&](ParseErrorCode c, const std::string& text) -> std::optional<Reply> {
    *code = c;
    *detail_text = text;
    return std::nullopt;
  };

  switch (opcode) {
    case WireOpcode::kGetWindowAttributes: {
      AttributesReply out;
      out.window = r.U32();
      uint8_t window_class = r.U8();
      uint8_t map_state = r.U8();
      uint8_t override_redirect = r.U8();
      r.Skip(1);
      if (r.ok() && window_class > 1) {
        return fail(ParseErrorCode::kBadValue, "window class not 0/1");
      }
      if (r.ok() && map_state > 2) {
        return fail(ParseErrorCode::kBadValue, "map state out of range");
      }
      if (r.ok() && override_redirect > 1) {
        return fail(ParseErrorCode::kBadValue, "override flag not 0/1");
      }
      out.window_class = static_cast<WindowClass>(window_class);
      out.map_state = static_cast<MapState>(map_state);
      out.override_redirect = override_redirect == 1;
      out.all_event_masks = r.U32();
      out.border_width = r.U16();
      return out;
    }
    case WireOpcode::kGetGeometry: {
      GeometryReply out;
      out.window = r.U32();
      out.geometry = GetRect(&r);
      out.border_width = r.U16();
      return out;
    }
    case WireOpcode::kQueryTree: {
      TreeReply out;
      out.window = r.U32();
      out.root = r.U32();
      out.parent = r.U32();
      uint32_t count = r.U32();
      if (r.ok() && count > kMaxReplyChildren) {
        return fail(ParseErrorCode::kOversized, "child count over cap");
      }
      if (r.ok() && static_cast<uint64_t>(count) * 4 > r.remaining()) {
        return fail(ParseErrorCode::kBadLength, "child list overruns frame");
      }
      out.children.reserve(count);
      for (uint32_t i = 0; i < count && r.ok(); ++i) {
        out.children.push_back(r.U32());
      }
      return out;
    }
    case WireOpcode::kInternAtom: {
      AtomReply out;
      out.atom = r.U32();
      return out;
    }
    case WireOpcode::kGetAtomName: {
      AtomNameReply out;
      out.atom = r.U32();
      uint16_t len = r.U16();
      if (r.ok() && len > kMaxWireStringBytes) {
        return fail(ParseErrorCode::kOversized, "atom name over cap");
      }
      if (r.ok() && len > r.remaining()) {
        return fail(ParseErrorCode::kBadLength, "atom name overruns frame");
      }
      out.name = r.String(len);
      return out;
    }
    case WireOpcode::kGetProperty: {
      PropertyReply out;
      out.window = r.U32();
      out.property = r.U32();
      out.type = r.U32();
      out.format = r.U8();
      uint8_t found = r.U8();
      r.Skip(2);
      if (r.ok() && out.format != 8 && out.format != 16 && out.format != 32) {
        return fail(ParseErrorCode::kBadValue, "format not 8/16/32");
      }
      if (r.ok() && found > 1) {
        return fail(ParseErrorCode::kBadValue, "found flag not 0/1");
      }
      out.found = found == 1;
      uint32_t data_len = r.U32();
      if (r.ok() && data_len > kMaxReplyPropertyBytes) {
        return fail(ParseErrorCode::kOversized, "property data over cap");
      }
      if (r.ok() && data_len > r.remaining()) {
        return fail(ParseErrorCode::kBadLength, "property data overruns frame");
      }
      std::span<const uint8_t> data = r.Bytes(data_len);
      out.data.assign(data.begin(), data.end());
      return out;
    }
    case WireOpcode::kTranslateCoordinates: {
      CoordinatesReply out;
      out.position.x = r.I32();
      out.position.y = r.I32();
      return out;
    }
    case WireOpcode::kQueryScreens: {
      ScreensReply out;
      uint32_t count = r.U32();
      if (r.ok() && count > kMaxReplyChildren) {
        return fail(ParseErrorCode::kOversized, "screen count over cap");
      }
      if (r.ok() && static_cast<uint64_t>(count) * 12 > r.remaining()) {
        return fail(ParseErrorCode::kBadLength, "screen list overruns frame");
      }
      out.screens.reserve(count);
      for (uint32_t i = 0; i < count && r.ok(); ++i) {
        ScreensReply::Screen s;
        s.root = r.U32();
        s.width = r.U16();
        s.height = r.U16();
        uint8_t mono = r.U8();
        r.Skip(3);
        if (r.ok() && mono > 1) {
          return fail(ParseErrorCode::kBadValue, "monochrome flag not 0/1");
        }
        s.monochrome = mono == 1;
        out.screens.push_back(s);
      }
      return out;
    }
    case WireOpcode::kQueryLastCreated: {
      LastCreatedReply out;
      out.window = r.U32();
      return out;
    }
    default:
      return fail(ParseErrorCode::kBadOpcode, "opcode has no reply");
  }
}

}  // namespace

size_t DecodeReply(std::span<const uint8_t> buffer, Reply* out, ParseError* error,
                   uint16_t* sequence) {
  if (buffer.size() < 8) {
    *error = MakeError(ParseErrorCode::kTruncated, 0, buffer.empty() ? 0 : buffer[0],
                       "buffer shorter than reply header");
    return 0;
  }
  if (buffer[0] != 1) {
    *error = MakeError(ParseErrorCode::kBadOpcode, 0, buffer[0],
                       "reply frames start with a one byte");
    return 0;
  }
  uint8_t opcode = buffer[1];
  uint32_t extra = 0;
  for (int i = 3; i >= 0; --i) {
    extra = extra << 8 | buffer[4 + static_cast<size_t>(i)];
  }
  if (extra > (kMaxReplyBytes - kMinReplyBytes) / 4) {
    *error = MakeError(ParseErrorCode::kOversized, 0, opcode,
                       "frame length exceeds kMaxReplyBytes");
    return 0;
  }
  size_t frame_bytes = kMinReplyBytes + static_cast<size_t>(extra) * 4;
  if (frame_bytes > buffer.size()) {
    *error = MakeError(ParseErrorCode::kTruncated, 0, opcode,
                       "frame extends past end of buffer");
    return 0;
  }

  WireReader reader(buffer.subspan(8, frame_bytes - 8));
  ParseErrorCode code = ParseErrorCode::kBadValue;
  std::string detail_text;
  std::optional<Reply> reply =
      DecodeReplyPayload(static_cast<WireOpcode>(opcode), reader, &code, &detail_text);
  if (!reply.has_value()) {
    *error = MakeError(code, 0, opcode, detail_text);
    return 0;
  }
  if (!reader.ok()) {
    *error = MakeError(ParseErrorCode::kBadLength, 0, opcode,
                       "payload shorter than the reply needs");
    return 0;
  }
  // Strict framing, as for requests: the length field must name exactly the
  // padded size of what the payload decoder consumed (with the 32-byte
  // floor).  Anything else is a length-field lie.
  size_t consumed = std::max(kMinReplyBytes, Pad4(8 + reader.offset()));
  if (consumed != frame_bytes) {
    *error = MakeError(ParseErrorCode::kBadLength, 0, opcode,
                       "frame length disagrees with payload size");
    return 0;
  }
  if (sequence != nullptr) {
    *sequence = static_cast<uint16_t>(buffer[2]) |
                static_cast<uint16_t>(static_cast<uint16_t>(buffer[3]) << 8);
  }
  *out = std::move(*reply);
  return frame_bytes;
}

// ---- Event encoding ---------------------------------------------------------

namespace {

// Event codes on the wire (core X11 numbering; ShapeNotify uses the typical
// extension base).
enum : uint8_t {
  kWireKeyPress = 2,
  kWireKeyRelease = 3,
  kWireButtonPress = 4,
  kWireButtonRelease = 5,
  kWireMotionNotify = 6,
  kWireEnterNotify = 7,
  kWireLeaveNotify = 8,
  kWireFocusIn = 9,
  kWireFocusOut = 10,
  kWireExpose = 12,
  kWireCreateNotify = 16,
  kWireDestroyNotify = 17,
  kWireUnmapNotify = 18,
  kWireMapNotify = 19,
  kWireMapRequest = 20,
  kWireReparentNotify = 21,
  kWireConfigureNotify = 22,
  kWireConfigureRequest = 23,
  kWireCirculateRequest = 27,
  kWirePropertyNotify = 28,
  kWireClientMessage = 33,
  kWireShapeNotify = 64,
};

void PutPoint16(const xbase::Point& p, WireWriter* w) {
  w->I16(static_cast<int16_t>(p.x));
  w->I16(static_cast<int16_t>(p.y));
}

xbase::Point GetPoint16(WireReader* r) {
  xbase::Point p;
  p.x = r->I16();
  p.y = r->I16();
  return p;
}

struct EventEncoder {
  WireWriter* w;

  void Header(uint8_t code, uint8_t detail) {
    w->U8(code);
    w->U8(detail);
    w->U16(0);  // Sequence, patched by EncodeEvent.
  }

  void operator()(const ButtonEvent& e) {
    Header(e.press ? kWireButtonPress : kWireButtonRelease, static_cast<uint8_t>(e.button));
    w->U32(e.window);
    w->U32(e.subwindow);
    w->U32(e.modifiers);
    PutPoint16(e.root_pos, w);
    PutPoint16(e.pos, w);
    w->U64(e.time);
  }
  void operator()(const MotionEvent& e) {
    Header(kWireMotionNotify, 0);
    w->U32(e.window);
    w->U32(e.subwindow);
    w->U32(e.modifiers);
    PutPoint16(e.root_pos, w);
    PutPoint16(e.pos, w);
    w->U64(e.time);
  }
  void operator()(const KeyEvent& e) {
    Header(e.press ? kWireKeyPress : kWireKeyRelease, 0);
    w->U32(e.window);
    w->U32(e.keysym);
    w->U32(e.modifiers);
    PutPoint16(e.root_pos, w);
    PutPoint16(e.pos, w);
    w->U64(e.time);
  }
  void operator()(const CrossingEvent& e) {
    Header(e.enter ? kWireEnterNotify : kWireLeaveNotify, 0);
    w->U32(e.window);
    PutPoint16(e.root_pos, w);
    PutPoint16(e.pos, w);
    w->U64(e.time);
  }
  void operator()(const ExposeEvent& e) {
    Header(kWireExpose, 0);
    w->U32(e.window);
    PutRect(e.area, w);
    w->I32(e.count);
  }
  void operator()(const CreateNotifyEvent& e) {
    Header(kWireCreateNotify, e.override_redirect ? 1 : 0);
    w->U32(e.parent);
    w->U32(e.window);
    PutRect(e.geometry, w);
  }
  void operator()(const DestroyNotifyEvent& e) {
    Header(kWireDestroyNotify, 0);
    w->U32(e.event_window);
    w->U32(e.window);
  }
  void operator()(const MapRequestEvent& e) {
    Header(kWireMapRequest, 0);
    w->U32(e.parent);
    w->U32(e.window);
  }
  void operator()(const MapNotifyEvent& e) {
    Header(kWireMapNotify, e.override_redirect ? 1 : 0);
    w->U32(e.event_window);
    w->U32(e.window);
  }
  void operator()(const UnmapNotifyEvent& e) {
    Header(kWireUnmapNotify, e.from_configure ? 1 : 0);
    w->U32(e.event_window);
    w->U32(e.window);
  }
  void operator()(const ReparentNotifyEvent& e) {
    Header(kWireReparentNotify, e.override_redirect ? 1 : 0);
    w->U32(e.event_window);
    w->U32(e.window);
    w->U32(e.parent);
    PutPoint16(e.pos, w);
  }
  void operator()(const ConfigureRequestEvent& e) {
    Header(kWireConfigureRequest, static_cast<uint8_t>(e.stack_mode));
    w->U32(e.parent);
    w->U32(e.window);
    w->U32(e.sibling);
    PutRect(e.geometry, w);
    w->I16(static_cast<int16_t>(e.border_width));
    w->U16(e.value_mask);
  }
  void operator()(const ConfigureNotifyEvent& e) {
    uint8_t flags = (e.override_redirect ? 1 : 0) | (e.synthetic ? 2 : 0);
    Header(kWireConfigureNotify, flags);
    w->U32(e.event_window);
    w->U32(e.window);
    w->U32(e.above_sibling);
    PutRect(e.geometry, w);
    w->I16(static_cast<int16_t>(e.border_width));
  }
  void operator()(const CirculateRequestEvent& e) {
    Header(kWireCirculateRequest, e.place_on_top ? 0 : 1);
    w->U32(e.parent);
    w->U32(e.window);
  }
  void operator()(const PropertyNotifyEvent& e) {
    Header(kWirePropertyNotify, static_cast<uint8_t>(e.state));
    w->U32(e.window);
    w->U32(e.atom);
    w->U64(e.time);
  }
  void operator()(const ClientMessageEvent& e) {
    Header(kWireClientMessage, static_cast<uint8_t>(e.format));
    w->U32(e.window);
    w->U32(e.message_type);
    for (uint32_t word : e.data) {
      w->U32(word);
    }
  }
  void operator()(const FocusEvent& e) {
    Header(e.in ? kWireFocusIn : kWireFocusOut, 0);
    w->U32(e.window);
  }
  void operator()(const ShapeNotifyEvent& e) {
    Header(kWireShapeNotify, e.shaped ? 1 : 0);
    w->U32(e.window);
    PutRect(e.extents, w);
  }
};

}  // namespace

void EncodeEvent(const Event& event, uint16_t sequence, WireWriter* writer) {
  size_t start = writer->bytes().size();
  std::visit(EventEncoder{writer}, event);
  // Pad the frame to exactly 32 bytes and patch the sequence.
  while (writer->bytes().size() - start < kEventWireBytes) {
    writer->U8(0);
  }
  writer->PatchU16(start + 2, sequence);
}

std::vector<uint8_t> EncodeEventBytes(const Event& event, uint16_t sequence) {
  WireWriter writer;
  EncodeEvent(event, sequence, &writer);
  return writer.Take();
}

size_t DecodeEvent(std::span<const uint8_t> buffer, Event* out, ParseError* error,
                   uint16_t* sequence) {
  if (buffer.size() < kEventWireBytes) {
    *error = MakeError(ParseErrorCode::kTruncated, 0, buffer.empty() ? 0 : buffer[0],
                       "event frame shorter than 32 bytes");
    return 0;
  }
  uint8_t code = buffer[0];
  uint8_t detail = buffer[1];
  if (sequence != nullptr) {
    *sequence = static_cast<uint16_t>(buffer[2]) |
                static_cast<uint16_t>(static_cast<uint16_t>(buffer[3]) << 8);
  }
  WireReader r(buffer.subspan(4, kEventWireBytes - 4));

  auto fail = [&](ParseErrorCode c, const std::string& text) -> size_t {
    *error = MakeError(c, 0, code, text);
    return 0;
  };

  switch (code) {
    case kWireButtonPress:
    case kWireButtonRelease: {
      if (detail < 1 || detail > kMaxButton) {
        return fail(ParseErrorCode::kBadValue, "button out of range");
      }
      ButtonEvent e;
      e.press = code == kWireButtonPress;
      e.button = detail;
      e.window = r.U32();
      e.subwindow = r.U32();
      e.modifiers = r.U32();
      e.root_pos = GetPoint16(&r);
      e.pos = GetPoint16(&r);
      e.time = r.U64();
      *out = e;
      break;
    }
    case kWireMotionNotify: {
      MotionEvent e;
      e.window = r.U32();
      e.subwindow = r.U32();
      e.modifiers = r.U32();
      e.root_pos = GetPoint16(&r);
      e.pos = GetPoint16(&r);
      e.time = r.U64();
      *out = e;
      break;
    }
    case kWireKeyPress:
    case kWireKeyRelease: {
      KeyEvent e;
      e.press = code == kWireKeyPress;
      e.window = r.U32();
      e.keysym = r.U32();
      e.modifiers = r.U32();
      e.root_pos = GetPoint16(&r);
      e.pos = GetPoint16(&r);
      e.time = r.U64();
      *out = e;
      break;
    }
    case kWireEnterNotify:
    case kWireLeaveNotify: {
      CrossingEvent e;
      e.enter = code == kWireEnterNotify;
      e.window = r.U32();
      e.root_pos = GetPoint16(&r);
      e.pos = GetPoint16(&r);
      e.time = r.U64();
      *out = e;
      break;
    }
    case kWireExpose: {
      ExposeEvent e;
      e.window = r.U32();
      e.area = GetRect(&r);
      e.count = r.I32();
      *out = e;
      break;
    }
    case kWireCreateNotify: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "override flag not 0/1");
      }
      CreateNotifyEvent e;
      e.override_redirect = detail == 1;
      e.parent = r.U32();
      e.window = r.U32();
      e.geometry = GetRect(&r);
      *out = e;
      break;
    }
    case kWireDestroyNotify: {
      DestroyNotifyEvent e;
      e.event_window = r.U32();
      e.window = r.U32();
      *out = e;
      break;
    }
    case kWireMapRequest: {
      MapRequestEvent e;
      e.parent = r.U32();
      e.window = r.U32();
      *out = e;
      break;
    }
    case kWireMapNotify: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "override flag not 0/1");
      }
      MapNotifyEvent e;
      e.override_redirect = detail == 1;
      e.event_window = r.U32();
      e.window = r.U32();
      *out = e;
      break;
    }
    case kWireUnmapNotify: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "from-configure flag not 0/1");
      }
      UnmapNotifyEvent e;
      e.from_configure = detail == 1;
      e.event_window = r.U32();
      e.window = r.U32();
      *out = e;
      break;
    }
    case kWireReparentNotify: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "override flag not 0/1");
      }
      ReparentNotifyEvent e;
      e.override_redirect = detail == 1;
      e.event_window = r.U32();
      e.window = r.U32();
      e.parent = r.U32();
      e.pos = GetPoint16(&r);
      *out = e;
      break;
    }
    case kWireConfigureRequest: {
      if (detail > static_cast<uint8_t>(StackMode::kOpposite)) {
        return fail(ParseErrorCode::kBadValue, "stack mode out of range");
      }
      ConfigureRequestEvent e;
      e.stack_mode = static_cast<StackMode>(detail);
      e.parent = r.U32();
      e.window = r.U32();
      e.sibling = r.U32();
      e.geometry = GetRect(&r);
      e.border_width = r.I16();
      e.value_mask = r.U16();
      if (e.value_mask >> 7 != 0) {
        return fail(ParseErrorCode::kBadValue, "unknown configure mask bits");
      }
      *out = e;
      break;
    }
    case kWireConfigureNotify: {
      if (detail > 3) {
        return fail(ParseErrorCode::kBadValue, "flags beyond override|synthetic");
      }
      ConfigureNotifyEvent e;
      e.override_redirect = (detail & 1) != 0;
      e.synthetic = (detail & 2) != 0;
      e.event_window = r.U32();
      e.window = r.U32();
      e.above_sibling = r.U32();
      e.geometry = GetRect(&r);
      e.border_width = r.I16();
      *out = e;
      break;
    }
    case kWireCirculateRequest: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "place flag not 0/1");
      }
      CirculateRequestEvent e;
      e.place_on_top = detail == 0;
      e.parent = r.U32();
      e.window = r.U32();
      *out = e;
      break;
    }
    case kWirePropertyNotify: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "property state not 0/1");
      }
      PropertyNotifyEvent e;
      e.state = static_cast<PropertyState>(detail);
      e.window = r.U32();
      e.atom = r.U32();
      e.time = r.U64();
      *out = e;
      break;
    }
    case kWireClientMessage: {
      if (detail != 8 && detail != 16 && detail != 32) {
        return fail(ParseErrorCode::kBadValue, "format not 8/16/32");
      }
      ClientMessageEvent e;
      e.format = detail;
      e.window = r.U32();
      e.message_type = r.U32();
      for (uint32_t& word : e.data) {
        word = r.U32();
      }
      *out = e;
      break;
    }
    case kWireFocusIn:
    case kWireFocusOut: {
      FocusEvent e;
      e.in = code == kWireFocusIn;
      e.window = r.U32();
      *out = e;
      break;
    }
    case kWireShapeNotify: {
      if (detail > 1) {
        return fail(ParseErrorCode::kBadValue, "shaped flag not 0/1");
      }
      ShapeNotifyEvent e;
      e.shaped = detail == 1;
      e.window = r.U32();
      e.extents = GetRect(&r);
      *out = e;
      break;
    }
    default:
      return fail(ParseErrorCode::kBadOpcode, "event code not implemented");
  }
  // The payload reader is scoped to the 28-byte body, so ok() can only fail
  // if a decoder above consumed more than fits — a codec bug, not an input
  // property.  Guard anyway: never let a short read masquerade as success.
  if (!r.ok()) {
    return fail(ParseErrorCode::kTruncated, "event body short");
  }
  return kEventWireBytes;
}

// ---- Error encoding ---------------------------------------------------------

void EncodeError(const XError& error, WireWriter* writer) {
  size_t start = writer->bytes().size();
  writer->U8(0);  // Errors are frame type 0, as in core X11.
  writer->U8(static_cast<uint8_t>(error.code));
  writer->U16(static_cast<uint16_t>(error.sequence));
  writer->U32(error.resource_id);
  writer->U64(error.sequence);
  writer->U8(static_cast<uint8_t>(error.request));
  while (writer->bytes().size() - start < kEventWireBytes) {
    writer->U8(0);
  }
}

size_t DecodeError(std::span<const uint8_t> buffer, XError* out, ParseError* parse_error) {
  if (buffer.size() < kEventWireBytes) {
    *parse_error = MakeError(ParseErrorCode::kTruncated, 0, 0, "error frame short");
    return 0;
  }
  if (buffer[0] != 0) {
    *parse_error = MakeError(ParseErrorCode::kBadOpcode, 0, buffer[0],
                             "error frames start with a zero byte");
    return 0;
  }
  if (buffer[1] > static_cast<uint8_t>(ErrorCode::kBadLength)) {
    *parse_error = MakeError(ParseErrorCode::kBadValue, 0, 0, "error code out of range");
    return 0;
  }
  WireReader r(buffer.subspan(4, kEventWireBytes - 4));
  out->code = static_cast<ErrorCode>(buffer[1]);
  out->resource_id = r.U32();
  out->sequence = r.U64();
  uint8_t request = r.U8();
  if (request > kMaxRequestCode) {
    *parse_error = MakeError(ParseErrorCode::kBadValue, 0, 0, "request code out of range");
    return 0;
  }
  out->request = static_cast<RequestCode>(request);
  return kEventWireBytes;
}

}  // namespace xproto
