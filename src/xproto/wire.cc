#include "src/xproto/wire.h"

#include <algorithm>
#include <array>
#include <concepts>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

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

// Fills `*error` and returns 0, the decoders' failure result.
size_t Reject(ParseError* error, ParseErrorCode code, uint8_t opcode, std::string detail) {
  *error = MakeError(code, 0, opcode, std::move(detail));
  return 0;
}

uint16_t Le16(std::span<const uint8_t> bytes, size_t at) {
  return static_cast<uint16_t>(bytes[at] | bytes[at + 1] << 8);
}

uint32_t Le32(std::span<const uint8_t> bytes, size_t at) {
  return static_cast<uint32_t>(Le16(bytes, at)) | static_cast<uint32_t>(Le16(bytes, at + 2)) << 16;
}

}  // namespace

// ---- Parse-error text -------------------------------------------------------

std::string ParseErrorCodeName(ParseErrorCode code) {
  static const char* const kNames[] = {"Truncated", "BadOpcode", "BadLength", "Oversized",
                                       "BadValue"};
  size_t index = static_cast<size_t>(code);
  return index < std::size(kNames) ? kNames[index] : kNames[0];
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
  std::span<const uint8_t> b = Bytes(1);
  return b.empty() ? 0 : b[0];
}

uint16_t WireReader::U16() {
  std::span<const uint8_t> b = Bytes(2);
  return b.empty() ? 0 : Le16(b, 0);
}

uint32_t WireReader::U32() {
  std::span<const uint8_t> b = Bytes(4);
  return b.empty() ? 0 : Le32(b, 0);
}

uint64_t WireReader::U64() {
  std::span<const uint8_t> b = Bytes(8);
  return b.empty() ? 0 : Le32(b, 0) | static_cast<uint64_t>(Le32(b, 4)) << 32;
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

void WireReader::Skip(size_t count) { Bytes(count); }

void WireReader::AlignSkip() { Skip(Pad4(offset_) - offset_); }

// ---- WireWriter -------------------------------------------------------------

void WireWriter::U16(uint16_t v) {
  bytes_.push_back(static_cast<uint8_t>(v));
  bytes_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  U16(static_cast<uint16_t>(v));
  U16(static_cast<uint16_t>(v >> 16));
}

void WireWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v));
  U32(static_cast<uint32_t>(v >> 32));
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
  PatchU16(offset, static_cast<uint16_t>(v));
  PatchU16(offset + 2, static_cast<uint16_t>(v >> 16));
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

// ---- Framing ----------------------------------------------------------------

size_t RequestFrameBytes(std::span<const uint8_t> head, std::optional<ParseErrorCode>* lie) {
  if (head.size() < 4) {
    return 0;
  }
  size_t frame = static_cast<size_t>(Le16(head, 2)) * 4;
  if (frame >= 4 && frame <= kMaxRequestBytes) {
    return frame;
  }
  if (lie != nullptr) {
    *lie = frame < 4 ? ParseErrorCode::kBadLength : ParseErrorCode::kOversized;
  }
  return 4;
}

size_t ServerFrameBytes(std::span<const uint8_t> head, std::optional<ParseErrorCode>* lie) {
  if (head.empty()) {
    return 0;
  }
  if (head[0] != 1) {
    return kEventWireBytes;
  }
  if (head.size() < 8) {
    return 0;
  }
  uint32_t extra = Le32(head, 4);
  if (extra <= (kMaxReplyBytes - kMinReplyBytes) / 4) {
    return kMinReplyBytes + static_cast<size_t>(extra) * 4;
  }
  if (lie != nullptr) {
    *lie = ParseErrorCode::kOversized;
  }
  return 8;
}

// ---- Field descriptions -----------------------------------------------------
//
// Every message's layout is written once, as `Fields(io, message)` below, and
// run by three Io types: Writer encodes (and refuses what Reader would
// reject), Reader decodes and bounds-checks, Clamp cuts a reply's counted
// fields to their caps before it is written.  The vocabulary:
//
//   U8/U16/U32/U64/I16/I32(f[, max, what])  a field, range-checked on the wire
//                                           value when `max` is given;
//   Detail(f[, max, what])                  the header's detail byte;
//   AltCode(flag)                           false selects an event's second code;
//   Pad(n) / Check(ok, what)                zero bytes / a BadValue condition;
//   Set(f, value)                           a field derived from others (decode);
//   Count16/Count32(c)                      a count prefix, returning the count;
//   Cap(n, cap, what) / Fits(bytes, what)   Oversized / BadLength checks;
//   Items(c, n) / Embedded(event)           n elements / a 32-byte event frame.
//
// Reader checks run in description order and only while nothing has failed,
// so the first failure names the frame's ParseErrorCode.

namespace {

constexpr uint64_t kAny = UINT64_MAX;

constexpr bool IsFormat(int format) { return format == 8 || format == 16 || format == 32; }

// T is one of the message types M (const or not: the writer sees const ones).
template <class T, class... M>
concept Is = (std::same_as<std::remove_const_t<T>, M> || ...);

// The named numeric vocabulary, shared by the three Io types.
template <class Self>
struct Vocabulary {
  void U8(auto& v, uint64_t max = kAny, const char* what = "") { Num<uint8_t>(v, max, what); }
  void U16(auto& v, uint64_t max = kAny, const char* what = "") { Num<uint16_t>(v, max, what); }
  void U32(auto& v, uint64_t max = kAny, const char* what = "") { Num<uint32_t>(v, max, what); }
  void U64(auto& v) { Num<uint64_t>(v, kAny, ""); }
  void I16(auto& v) { Num<int16_t>(v, kAny, ""); }
  void I32(auto& v) { Num<int32_t>(v, kAny, ""); }
  size_t Count16(auto& c) { return static_cast<Self&>(*this).template Count<uint16_t>(c); }
  size_t Count32(auto& c) { return static_cast<Self&>(*this).template Count<uint32_t>(c); }

 private:
  template <class W>
  void Num(auto& v, uint64_t max, const char* what) {
    static_cast<Self&>(*this).template Field<W>(v, max, what);
  }
};

bool WriteEvent(const Event& event, uint16_t sequence, WireWriter* writer);

// Whether `v` survives a wire field of type W unchanged.  An enum travels as
// its value; a bool or a char is one byte whatever its value.
template <class W, class T>
constexpr bool FitsWire(const T& v) {
  if constexpr (std::is_enum_v<T>) {
    return std::in_range<W>(static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, char>) {
    return true;
  } else {
    return std::in_range<W>(v);
  }
}

class Writer : public Vocabulary<Writer> {
 public:
  Writer(WireWriter* w, size_t frame_start, uint8_t alt_code = 0)
      : w_(w), start_(frame_start), alt_code_(alt_code) {}

  bool ok() const { return ok_; }

  template <class W>
  void Field(const auto& v, uint64_t max, const char*) {
    Expect(FitsWire<W>(v) && static_cast<uint64_t>(v) <= max);
    Put(static_cast<W>(v));
  }
  template <class T>
  void Detail(const T& v, uint64_t max = kAny, const char* = "") {
    Expect(static_cast<uint64_t>(v) <= max);
    w_->PatchU8(start_ + 1, static_cast<uint8_t>(v));
  }
  void AltCode(bool flag) {
    if (!flag) w_->PatchU8(start_, alt_code_);
  }
  void Pad(size_t n) {
    for (size_t i = 0; i < n; ++i) w_->U8(0);
  }
  void Check(bool condition, const char*) { Expect(condition); }
  void Set(const auto&, auto) {}
  template <class W, class C>
  size_t Count(const C& c) {
    Expect(c.size() <= std::numeric_limits<W>::max());
    Put(static_cast<W>(c.size()));
    return c.size();
  }
  void Cap(size_t n, size_t cap, const char*) { Expect(n <= cap); }
  void Fits(uint64_t, const char*) {}
  template <class C>
  void Items(const C& c, size_t n) {
    Expect(c.size() == n);
    if constexpr (std::is_same_v<C, std::string>) {
      w_->String(c);
    } else if constexpr (std::is_same_v<C, std::vector<uint8_t>>) {
      w_->Bytes(c);
    } else {
      for (const auto& item : c) Fields(*this, item);
    }
  }
  void Embedded(const Event& event) { Expect(WriteEvent(event, 0, w_)); }

 private:
  void Expect(bool condition) { ok_ = ok_ && condition; }
  template <class W>
  void Put(W v) {
    if constexpr (sizeof(W) == 1) w_->U8(static_cast<uint8_t>(v));
    if constexpr (sizeof(W) == 2) w_->U16(static_cast<uint16_t>(v));
    if constexpr (sizeof(W) == 4) w_->U32(static_cast<uint32_t>(v));
    if constexpr (sizeof(W) == 8) w_->U64(static_cast<uint64_t>(v));
  }

  WireWriter* w_;
  size_t start_;
  uint8_t alt_code_;
  bool ok_ = true;
};

class Reader : public Vocabulary<Reader> {
 public:
  // `frame` is the whole frame; the description reads what follows its
  // `header_bytes`.  `floor` is the frame's minimum size, `opcode` the code
  // an error reports, `alt_code` the frame code's second value if any.
  Reader(std::span<const uint8_t> frame, size_t header_bytes, size_t floor, uint8_t opcode,
         uint8_t detail, uint8_t alt_code = 0)
      : in_(frame.subspan(header_bytes)),
        frame_bytes_(frame.size()),
        header_bytes_(header_bytes),
        floor_(floor),
        opcode_(opcode),
        detail_(detail),
        alt_(alt_code != 0 && frame[0] == alt_code) {}

  bool ok() const { return !failed_ && in_.ok(); }

  template <class W, class T>
  void Field(T& v, uint64_t max, const char* what) {
    W wire = Get<W>();
    Check(static_cast<uint64_t>(wire) <= max, what);
    v = static_cast<T>(wire);
  }
  template <class T>
  void Detail(T& v, uint64_t max = kAny, const char* what = "") {
    Check(detail_ <= max, what);
    v = static_cast<T>(detail_);
  }
  void AltCode(bool& flag) { flag = !alt_; }
  void Pad(size_t n) { in_.Skip(n); }
  void Check(bool condition, const char* what) {
    if (ok() && !condition) Fail(ParseErrorCode::kBadValue, what);
  }
  void Set(auto& field, auto value) { field = value; }
  template <class W>
  size_t Count(auto&) { return Get<W>(); }
  void Cap(size_t n, size_t cap, const char* what) {
    if (ok() && n > cap) Fail(ParseErrorCode::kOversized, std::string(what) + " over cap");
  }
  void Fits(uint64_t bytes, const char* what) {
    if (ok() && bytes > in_.remaining()) {
      Fail(ParseErrorCode::kBadLength, std::string(what) + " overruns frame");
    }
  }
  template <class C>
  void Items(C& c, size_t n) {
    if (!ok()) return;
    if constexpr (std::is_same_v<C, std::string> || std::is_same_v<C, std::vector<uint8_t>>) {
      std::span<const uint8_t> bytes = in_.Bytes(n);
      c.assign(bytes.begin(), bytes.end());
    } else {
      c.reserve(n);
      for (size_t i = 0; i < n && ok(); ++i) {
        Fields(*this, c.emplace_back());
      }
    }
  }
  void Embedded(Event& event) {
    std::span<const uint8_t> frame = in_.Bytes(kEventWireBytes);
    if (failed_) return;
    if (!in_.ok()) return Fail(ParseErrorCode::kTruncated, "embedded event frame short");
    ParseError error;
    if (DecodeEvent(frame, &event, &error) == 0) {
      Fail(error.code, "embedded event: " + error.detail);
    }
  }

  // The verdict once the description has run: its first failure, a payload
  // shorter than the description, or a length field naming more than the
  // padded size the description consumed.  Strict framing: slack is a lie.
  bool Accept(ParseError* error) {
    if (!failed_ && !in_.ok()) {
      Fail(ParseErrorCode::kBadLength, "payload shorter than the frame needs");
    }
    if (!failed_ && std::max(floor_, Pad4(header_bytes_ + in_.offset())) != frame_bytes_) {
      Fail(ParseErrorCode::kBadLength, "frame length disagrees with payload size");
    }
    if (failed_) *error = MakeError(code_, 0, opcode_, std::move(detail_text_));
    return !failed_;
  }

 private:
  void Fail(ParseErrorCode code, std::string text) {
    failed_ = true;
    code_ = code;
    detail_text_ = std::move(text);
  }
  template <class W>
  W Get() {
    if constexpr (sizeof(W) == 1) return static_cast<W>(in_.U8());
    if constexpr (sizeof(W) == 2) return static_cast<W>(in_.U16());
    if constexpr (sizeof(W) == 4) return static_cast<W>(in_.U32());
    if constexpr (sizeof(W) == 8) return static_cast<W>(in_.U64());
  }

  WireReader in_;
  size_t frame_bytes_;
  size_t header_bytes_;
  size_t floor_;
  uint8_t opcode_;
  uint8_t detail_;
  bool alt_;
  bool failed_ = false;
  ParseErrorCode code_ = ParseErrorCode::kBadValue;
  std::string detail_text_;
};

// Cuts every counted field to its cap; everything else is left alone.
class Clamp : public Vocabulary<Clamp> {
 public:
  template <class W>
  void Field(auto&, uint64_t, const char*) {}
  void Pad(size_t) {}
  void Check(bool, const char*) {}
  template <class W>
  size_t Count(auto& c) { return c.size(); }
  void Cap(size_t& n, size_t cap, const char*) { n = std::min(n, cap); }
  void Fits(uint64_t, const char*) {}
  void Items(auto& c, size_t n) { c.resize(n); }
};

// ---- Shared shapes ----

void Fields(auto& io, Is<WindowId> auto& id) { io.U32(id); }

void Fields(auto& io, Is<xbase::Rect> auto& r) {
  io.I16(r.x);
  io.I16(r.y);
  io.U16(r.width);
  io.U16(r.height);
}

void Fields(auto& io, Is<xbase::Point> auto& p) {
  io.I16(p.x);
  io.I16(p.y);
}

// ---- Requests ----

void Fields(auto& io, Is<CreateWindowRequest> auto& r) {
  io.Detail(r.window_class, 1, "window class not 0/1");
  io.U32(r.parent);
  Fields(io, r.geometry);
  io.U16(r.border_width);
  io.U8(r.override_redirect);
}

void Fields(auto& io, Is<DestroyWindowRequest, MapWindowRequest, UnmapWindowRequest,
                       SetInputFocusRequest, ClearWindowRequest, ShapeClearRequest,
                       GetWindowAttributesRequest, GetGeometryRequest, QueryTreeRequest> auto& r) {
  io.U32(r.window);
}

void Fields(auto&, Is<QueryScreensRequest, QueryLastCreatedRequest> auto&) {}

void Fields(auto& io, Is<ReparentWindowRequest> auto& r) {
  io.U32(r.window);
  io.U32(r.parent);
  Fields(io, r.position);
}

void Fields(auto& io, Is<ConfigureWindowRequest> auto& r) {
  io.U32(r.window);
  io.U16(r.value_mask);
  io.Pad(2);
  io.Check(r.value_mask >> 7 == 0, "unknown configure mask bits");
  // LISTofVALUE: one 4-byte slot per set mask bit, canonical order.
  if (r.value_mask & kConfigX) io.I32(r.geometry.x);
  if (r.value_mask & kConfigY) io.I32(r.geometry.y);
  if (r.value_mask & kConfigWidth) io.I32(r.geometry.width);
  if (r.value_mask & kConfigHeight) io.I32(r.geometry.height);
  if (r.value_mask & kConfigBorderWidth) io.I32(r.border_width);
  if (r.value_mask & kConfigSibling) io.U32(r.sibling);
  if (r.value_mask & kConfigStackMode) io.U32(r.stack_mode, 4, "stack mode out of range");
}

void Fields(auto& io, Is<SelectInputRequest> auto& r) {
  io.U32(r.window);
  io.U32(r.event_mask);
}

void Fields(auto& io, Is<ChangeSaveSetRequest> auto& r) {
  uint8_t remove = r.add ? 0 : 1;
  io.Detail(remove, 1, "save-set mode not 0/1");
  io.Set(r.add, remove == 0);
  io.U32(r.window);
}

void Fields(auto& io, Is<ChangePropertyRequest> auto& r) {
  io.Detail(r.mode, 2, "property mode not 0/1/2");
  io.U32(r.window);
  io.U32(r.property);
  io.U32(r.type);
  io.U8(r.format);
  io.Check(IsFormat(r.format), "format not 8/16/32");
  io.Pad(3);
  // No cap of its own: kMaxRequestBytes bounds the frame that carries it.
  size_t n = io.Count32(r.data);
  io.Fits(n, "property data");
  io.Items(r.data, n);
}

void Fields(auto& io, Is<DeletePropertyRequest> auto& r) {
  io.U32(r.window);
  io.U32(r.property);
}

void Fields(auto& io, Is<SendEventRequest> auto& r) {
  io.U32(r.destination);
  io.U32(r.event_mask);
  io.Embedded(r.event);
}

void Fields(auto& io, Is<GrabButtonRequest> auto& r) {
  io.Detail(r.button, kMaxButton, "button out of range");
  io.U32(r.window);
  io.U32(r.modifiers);
  io.U32(r.event_mask);
}

void Fields(auto& io, Is<UngrabButtonRequest> auto& r) {
  io.Detail(r.button, kMaxButton, "button out of range");
  io.U32(r.window);
  io.U32(r.modifiers);
}

void Fields(auto& io, Is<SetWindowBackgroundRequest> auto& r) {
  io.U32(r.window);
  io.U8(r.background);
}

void Fields(auto& io, Is<SetCursorRequest> auto& r) {
  io.U32(r.window);
  size_t n = io.Count16(r.name);
  io.Cap(n, kMaxWireStringBytes, "cursor name");
  io.Fits(n, "cursor name");
  io.Items(r.name, n);
}

void Fields(auto& io, Is<DrawRequest> auto& r) {
  io.Detail(r.kind, 4, "draw kind out of range");  // xserver::DrawOp::Kind has 5 values.
  io.U32(r.window);
  Fields(io, r.rect);
  io.U8(r.fill);
  io.Pad(1);
  size_t text = io.Count16(r.text);
  io.U16(r.bitmap_width, 0xFFFF, "bitmap width");
  io.U16(r.bitmap_height, 0xFFFF, "bitmap height");
  size_t cells = static_cast<size_t>(r.bitmap_width) * static_cast<size_t>(r.bitmap_height);
  // Both caps before the combined fit: an over-cap count is kOversized even
  // when the frame is also too short for it.
  io.Cap(text, kMaxWireStringBytes, "draw text");
  io.Cap(cells, kMaxWireBitmapCells, "bitmap cells");
  io.Fits(static_cast<uint64_t>(text) + cells, "draw payload");
  io.Items(r.text, text);
  io.Items(r.bitmap_cells, cells);
}

void Fields(auto& io, Is<ShapeRegionRequest> auto& r) {
  io.U32(r.window);
  size_t n = io.Count16(r.rects);
  io.Pad(2);
  io.Cap(n, kMaxWireRects, "shape rects");
  io.Fits(n * 8, "shape rects");
  io.Items(r.rects, n);
}

void Fields(auto& io, Is<ShapeSelectRequest> auto& r) {
  io.Detail(r.enable, 1, "shape select flag not 0/1");
  io.U32(r.window);
}

void Fields(auto& io, Is<InternAtomRequest> auto& r) {
  size_t n = io.Count16(r.name);
  io.Pad(2);
  io.Cap(n, kMaxWireStringBytes, "atom name");
  io.Fits(n, "atom name");
  io.Items(r.name, n);
}

void Fields(auto& io, Is<GetAtomNameRequest> auto& r) {
  io.U32(r.atom);
}

void Fields(auto& io, Is<GetPropertyRequest> auto& r) {
  io.U32(r.window);
  io.U32(r.property);
}

void Fields(auto& io, Is<TranslateCoordinatesRequest> auto& r) {
  io.U32(r.src);
  io.U32(r.dst);
  Fields(io, r.point);
}

// ---- Replies ----

void Fields(auto& io, Is<AttributesReply> auto& r) {
  io.U32(r.window);
  io.U8(r.window_class, 1, "window class not 0/1");
  io.U8(r.map_state, 2, "map state out of range");
  io.U8(r.override_redirect, 1, "override flag not 0/1");
  io.Pad(1);
  io.U32(r.all_event_masks);
  io.U16(r.border_width);
}

void Fields(auto& io, Is<GeometryReply> auto& r) {
  io.U32(r.window);
  Fields(io, r.geometry);
  io.U16(r.border_width);
}

void Fields(auto& io, Is<TreeReply> auto& r) {
  io.U32(r.window);
  io.U32(r.root);
  io.U32(r.parent);
  size_t n = io.Count32(r.children);
  io.Cap(n, kMaxReplyChildren, "child list");
  io.Fits(static_cast<uint64_t>(n) * 4, "child list");
  io.Items(r.children, n);
}

void Fields(auto& io, Is<AtomReply> auto& r) {
  io.U32(r.atom);
}

void Fields(auto& io, Is<AtomNameReply> auto& r) {
  io.U32(r.atom);
  size_t n = io.Count16(r.name);
  io.Cap(n, kMaxWireStringBytes, "atom name");
  io.Fits(n, "atom name");
  io.Items(r.name, n);
}

void Fields(auto& io, Is<PropertyReply> auto& r) {
  io.U32(r.window);
  io.U32(r.property);
  io.U32(r.type);
  io.U8(r.format);
  io.Check(IsFormat(r.format), "format not 8/16/32");
  io.U8(r.found, 1, "found flag not 0/1");
  io.Pad(2);
  size_t n = io.Count32(r.data);
  io.Cap(n, kMaxReplyPropertyBytes, "property data");
  io.Fits(n, "property data");
  io.Items(r.data, n);
}

void Fields(auto& io, Is<CoordinatesReply> auto& r) {
  io.I32(r.position.x);
  io.I32(r.position.y);
}

void Fields(auto& io, Is<ScreensReply::Screen> auto& s) {
  io.U32(s.root);
  io.U16(s.width);
  io.U16(s.height);
  io.U8(s.monochrome, 1, "monochrome flag not 0/1");
  io.Pad(3);
}

void Fields(auto& io, Is<ScreensReply> auto& r) {
  size_t n = io.Count32(r.screens);
  io.Cap(n, kMaxReplyChildren, "screen list");
  io.Fits(static_cast<uint64_t>(n) * 12, "screen list");
  io.Items(r.screens, n);
}

void Fields(auto& io, Is<LastCreatedReply> auto& r) {
  io.U32(r.window);
}

// ---- Events ----

void Fields(auto& io, Is<ButtonEvent> auto& e) {
  io.AltCode(e.press);
  io.Detail(e.button);
  io.Check(e.button >= 1 && e.button <= kMaxButton, "button out of range");
  io.U32(e.window);
  io.U32(e.subwindow);
  io.U32(e.modifiers);
  Fields(io, e.root_pos);
  Fields(io, e.pos);
  io.U64(e.time);
}

void Fields(auto& io, Is<MotionEvent> auto& e) {
  io.U32(e.window);
  io.U32(e.subwindow);
  io.U32(e.modifiers);
  Fields(io, e.root_pos);
  Fields(io, e.pos);
  io.U64(e.time);
}

void Fields(auto& io, Is<KeyEvent> auto& e) {
  io.AltCode(e.press);
  io.U32(e.window);
  io.U32(e.keysym);
  io.U32(e.modifiers);
  Fields(io, e.root_pos);
  Fields(io, e.pos);
  io.U64(e.time);
}

void Fields(auto& io, Is<CrossingEvent> auto& e) {
  io.AltCode(e.enter);
  io.U32(e.window);
  Fields(io, e.root_pos);
  Fields(io, e.pos);
  io.U64(e.time);
}

void Fields(auto& io, Is<ExposeEvent> auto& e) {
  io.U32(e.window);
  Fields(io, e.area);
  io.I32(e.count);
}

void Fields(auto& io, Is<CreateNotifyEvent> auto& e) {
  io.Detail(e.override_redirect, 1, "override flag not 0/1");
  io.U32(e.parent);
  io.U32(e.window);
  Fields(io, e.geometry);
}

void Fields(auto& io, Is<DestroyNotifyEvent> auto& e) {
  io.U32(e.event_window);
  io.U32(e.window);
}

void Fields(auto& io, Is<MapRequestEvent> auto& e) {
  io.U32(e.parent);
  io.U32(e.window);
}

void Fields(auto& io, Is<MapNotifyEvent> auto& e) {
  io.Detail(e.override_redirect, 1, "override flag not 0/1");
  io.U32(e.event_window);
  io.U32(e.window);
}

void Fields(auto& io, Is<UnmapNotifyEvent> auto& e) {
  io.Detail(e.from_configure, 1, "from-configure flag not 0/1");
  io.U32(e.event_window);
  io.U32(e.window);
}

void Fields(auto& io, Is<ReparentNotifyEvent> auto& e) {
  io.Detail(e.override_redirect, 1, "override flag not 0/1");
  io.U32(e.event_window);
  io.U32(e.window);
  io.U32(e.parent);
  Fields(io, e.pos);
}

void Fields(auto& io, Is<ConfigureRequestEvent> auto& e) {
  io.Detail(e.stack_mode, 4, "stack mode out of range");
  io.U32(e.parent);
  io.U32(e.window);
  io.U32(e.sibling);
  Fields(io, e.geometry);
  io.I16(e.border_width);
  io.U16(e.value_mask);
  io.Check(e.value_mask >> 7 == 0, "unknown configure mask bits");
}

void Fields(auto& io, Is<ConfigureNotifyEvent> auto& e) {
  uint8_t flags = (e.override_redirect ? 1 : 0) | (e.synthetic ? 2 : 0);
  io.Detail(flags, 3, "flags beyond override|synthetic");
  io.Set(e.override_redirect, (flags & 1) != 0);
  io.Set(e.synthetic, (flags & 2) != 0);
  io.U32(e.event_window);
  io.U32(e.window);
  io.U32(e.above_sibling);
  Fields(io, e.geometry);
  io.I16(e.border_width);
}

void Fields(auto& io, Is<CirculateRequestEvent> auto& e) {
  uint8_t below = e.place_on_top ? 0 : 1;
  io.Detail(below, 1, "place flag not 0/1");
  io.Set(e.place_on_top, below == 0);
  io.U32(e.parent);
  io.U32(e.window);
}

void Fields(auto& io, Is<PropertyNotifyEvent> auto& e) {
  io.Detail(e.state, 1, "property state not 0/1");
  io.U32(e.window);
  io.U32(e.atom);
  io.U64(e.time);
}

void Fields(auto& io, Is<ClientMessageEvent> auto& e) {
  io.Detail(e.format);
  io.Check(IsFormat(e.format), "format not 8/16/32");
  io.U32(e.window);
  io.U32(e.message_type);
  for (auto& word : e.data) io.U32(word);
}

void Fields(auto& io, Is<FocusEvent> auto& e) {
  io.AltCode(e.in);
  io.U32(e.window);
}

void Fields(auto& io, Is<ShapeNotifyEvent> auto& e) {
  io.Detail(e.shaped, 1, "shaped flag not 0/1");
  io.U32(e.window);
  Fields(io, e.extents);
}

// ---- Message tables ----
//
// One row per variant alternative, in variant order: the wire code, and for
// requests the error-channel RequestCode and the name.

struct RequestRow {
  WireOpcode code;
  RequestCode request;
  const char* name;
};

constexpr RequestRow kRequestRows[] = {
    {WireOpcode::kCreateWindow, RequestCode::kCreateWindow, "CreateWindowRequest"},
    {WireOpcode::kDestroyWindow, RequestCode::kDestroyWindow, "DestroyWindowRequest"},
    {WireOpcode::kMapWindow, RequestCode::kMapWindow, "MapWindowRequest"},
    {WireOpcode::kUnmapWindow, RequestCode::kUnmapWindow, "UnmapWindowRequest"},
    {WireOpcode::kReparentWindow, RequestCode::kReparentWindow, "ReparentWindowRequest"},
    {WireOpcode::kConfigureWindow, RequestCode::kConfigureWindow, "ConfigureWindowRequest"},
    {WireOpcode::kSelectInput, RequestCode::kSelectInput, "SelectInputRequest"},
    {WireOpcode::kChangeSaveSet, RequestCode::kChangeSaveSet, "ChangeSaveSetRequest"},
    {WireOpcode::kChangeProperty, RequestCode::kChangeProperty, "ChangePropertyRequest"},
    {WireOpcode::kDeleteProperty, RequestCode::kDeleteProperty, "DeletePropertyRequest"},
    {WireOpcode::kSendEvent, RequestCode::kSendEvent, "SendEventRequest"},
    {WireOpcode::kSetInputFocus, RequestCode::kSetInputFocus, "SetInputFocusRequest"},
    {WireOpcode::kGrabButton, RequestCode::kGrabButton, "GrabButtonRequest"},
    {WireOpcode::kUngrabButton, RequestCode::kUngrabButton, "UngrabButtonRequest"},
    {WireOpcode::kClearWindow, RequestCode::kClearWindow, "ClearWindowRequest"},
    {WireOpcode::kSetWindowBackground, RequestCode::kSetWindowBackground,
     "SetWindowBackgroundRequest"},
    {WireOpcode::kSetCursor, RequestCode::kSetCursor, "SetCursorRequest"},
    {WireOpcode::kDraw, RequestCode::kDraw, "DrawRequest"},
    {WireOpcode::kShapeRegion, RequestCode::kShapeOp, "ShapeRegionRequest"},
    {WireOpcode::kShapeClear, RequestCode::kShapeOp, "ShapeClearRequest"},
    {WireOpcode::kShapeSelect, RequestCode::kShapeOp, "ShapeSelectRequest"},
    {WireOpcode::kGetWindowAttributes, RequestCode::kGetWindowAttributes,
     "GetWindowAttributesRequest"},
    {WireOpcode::kGetGeometry, RequestCode::kGetGeometry, "GetGeometryRequest"},
    {WireOpcode::kQueryTree, RequestCode::kQueryTree, "QueryTreeRequest"},
    {WireOpcode::kInternAtom, RequestCode::kInternAtom, "InternAtomRequest"},
    {WireOpcode::kGetAtomName, RequestCode::kGetAtomName, "GetAtomNameRequest"},
    {WireOpcode::kGetProperty, RequestCode::kGetProperty, "GetPropertyRequest"},
    {WireOpcode::kTranslateCoordinates, RequestCode::kTranslateCoordinates,
     "TranslateCoordinatesRequest"},
    {WireOpcode::kQueryScreens, RequestCode::kQueryScreens, "QueryScreensRequest"},
    {WireOpcode::kQueryLastCreated, RequestCode::kQueryLastCreated, "QueryLastCreatedRequest"},
};

struct ReplyRow {
  WireOpcode code;
  const char* name;
};

constexpr ReplyRow kReplyRows[] = {
    {WireOpcode::kGetWindowAttributes, "AttributesReply"},
    {WireOpcode::kGetGeometry, "GeometryReply"},
    {WireOpcode::kQueryTree, "TreeReply"},
    {WireOpcode::kInternAtom, "AtomReply"},
    {WireOpcode::kGetAtomName, "AtomNameReply"},
    {WireOpcode::kGetProperty, "PropertyReply"},
    {WireOpcode::kTranslateCoordinates, "CoordinatesReply"},
    {WireOpcode::kQueryScreens, "ScreensReply"},
    {WireOpcode::kQueryLastCreated, "LastCreatedReply"},
};

// Event codes are core X11's (ShapeNotify takes the typical extension base).
// A type with two codes (press/release, enter/leave, in/out) names the second
// in alt_code; its AltCode flag picks between them.
struct EventRow {
  uint8_t code;
  uint8_t alt_code;
};

constexpr EventRow kEventRows[] = {
    {4, 5},    // ButtonEvent: ButtonPress / ButtonRelease.
    {6, 0},    // MotionEvent.
    {2, 3},    // KeyEvent: KeyPress / KeyRelease.
    {7, 8},    // CrossingEvent: EnterNotify / LeaveNotify.
    {12, 0},   // ExposeEvent.
    {16, 0},   // CreateNotifyEvent.
    {17, 0},   // DestroyNotifyEvent.
    {20, 0},   // MapRequestEvent.
    {19, 0},   // MapNotifyEvent.
    {18, 0},   // UnmapNotifyEvent.
    {21, 0},   // ReparentNotifyEvent.
    {23, 0},   // ConfigureRequestEvent.
    {22, 0},   // ConfigureNotifyEvent.
    {27, 0},   // CirculateRequestEvent.
    {28, 0},   // PropertyNotifyEvent.
    {33, 0},   // ClientMessageEvent.
    {9, 10},   // FocusEvent: FocusIn / FocusOut.
    {64, 0},   // ShapeNotifyEvent.
};

static_assert(std::size(kRequestRows) == std::variant_size_v<Request>);
static_assert(std::size(kReplyRows) == std::variant_size_v<Reply>);
static_assert(std::size(kEventRows) == std::variant_size_v<Event>);

// Variant index of each wire code (-1 where none), built from a table.
template <class Row, size_t N>
constexpr std::array<int8_t, 256> IndexByCode(const Row (&rows)[N]) {
  std::array<int8_t, 256> index{};
  index.fill(-1);
  for (size_t i = 0; i < N; ++i) {
    index[static_cast<uint8_t>(rows[i].code)] = static_cast<int8_t>(i);
    if constexpr (std::is_same_v<Row, EventRow>) {
      if (rows[i].alt_code != 0) index[rows[i].alt_code] = static_cast<int8_t>(i);
    }
  }
  return index;
}

constexpr std::array<int8_t, 256> kRequestIndex = IndexByCode(kRequestRows);
constexpr std::array<int8_t, 256> kReplyIndex = IndexByCode(kReplyRows);
constexpr std::array<int8_t, 256> kEventIndex = IndexByCode(kEventRows);

// Decodes alternative I of V into a local message and, once the frame is
// accepted, moves it into `*out` (which a rejected frame leaves untouched).
template <class V, size_t I>
bool ReadAlternative(Reader& io, V* out, ParseError* error) {
  std::variant_alternative_t<I, V> message;
  Fields(io, message);
  if (!io.Accept(error)) {
    return false;
  }
  out->template emplace<I>(std::move(message));
  return true;
}

template <class V, size_t... I>
constexpr auto MakeReaders(std::index_sequence<I...>) {
  return std::array<bool (*)(Reader&, V*, ParseError*), sizeof...(I)>{
      &ReadAlternative<V, I>...};
}

template <class V>
constexpr auto kReaders = MakeReaders<V>(std::make_index_sequence<std::variant_size_v<V>>());

// Writes `message`'s fields behind a header the caller has already begun.
template <class V>
bool WriteFields(const V& message, WireWriter* writer, size_t start, uint8_t alt_code = 0) {
  Writer io(writer, start, alt_code);
  std::visit([&io](const auto& m) { Fields(io, m); }, message);
  return io.ok();
}

bool WriteEvent(const Event& event, uint16_t sequence, WireWriter* writer) {
  size_t start = writer->bytes().size();
  const EventRow& row = kEventRows[event.index()];
  writer->U8(row.code);
  writer->U8(0);  // Detail, patched by the description.
  writer->U16(sequence);
  bool ok = WriteFields(event, writer, start, row.alt_code);
  while (writer->bytes().size() - start < kEventWireBytes) {
    writer->U8(0);
  }
  return ok;
}

bool WriteReply(const Reply& reply, uint16_t sequence, WireWriter* writer) {
  size_t start = writer->bytes().size();
  writer->U8(1);  // Replies are frame type 1, as in core X11.
  writer->U8(static_cast<uint8_t>(ReplyOpcode(reply)));
  writer->U16(sequence);
  writer->U32(0);  // Extra length, patched below.
  bool ok = WriteFields(reply, writer, start);
  // Pad to the 4-byte grid and to the 32-byte floor, then patch the length
  // field with the 4-byte units beyond the floor.
  while ((writer->bytes().size() - start) % 4 != 0 ||
         writer->bytes().size() - start < kMinReplyBytes) {
    writer->U8(0);
  }
  size_t frame_bytes = writer->bytes().size() - start;
  writer->PatchU32(start + 4, static_cast<uint32_t>((frame_bytes - kMinReplyBytes) / 4));
  return ok;
}

}  // namespace

// ---- Message metadata -------------------------------------------------------

WireOpcode RequestOpcode(const Request& request) { return kRequestRows[request.index()].code; }

std::string WireRequestName(const Request& request) {
  return kRequestRows[request.index()].name;
}

RequestCode RequestCodeOf(const Request& request) {
  return kRequestRows[request.index()].request;
}

RequestCode RequestCodeForOpcode(uint8_t opcode) {
  int index = kRequestIndex[opcode];
  return index < 0 ? RequestCode::kNone : kRequestRows[index].request;
}

WireOpcode ReplyOpcode(const Reply& reply) { return kReplyRows[reply.index()].code; }

std::string WireReplyName(const Reply& reply) { return kReplyRows[reply.index()].name; }

// ---- Requests ---------------------------------------------------------------

bool EncodeRequest(const Request& request, WireWriter* writer) {
  size_t start = writer->bytes().size();
  writer->BeginRequest(static_cast<uint8_t>(RequestOpcode(request)), 0);
  bool ok = WriteFields(request, writer, start);
  writer->CloseRequest();
  if (ok && writer->bytes().size() - start <= kMaxRequestBytes) {
    return true;
  }
  writer->Truncate(start);
  return false;
}

std::vector<uint8_t> EncodeRequestBytes(const Request& request) {
  WireWriter writer;
  EncodeRequest(request, &writer);
  return writer.Take();
}

size_t DecodeRequest(std::span<const uint8_t> buffer, Request* out, ParseError* error) {
  uint8_t opcode = buffer.empty() ? 0 : buffer[0];
  std::optional<ParseErrorCode> lie;
  size_t frame_bytes = RequestFrameBytes(buffer, &lie);
  if (frame_bytes == 0) {
    return Reject(error, ParseErrorCode::kTruncated, opcode, "buffer shorter than request header");
  }
  if (lie.has_value()) {
    return Reject(error, *lie, opcode,
                  *lie == ParseErrorCode::kOversized ? "frame length exceeds kMaxRequestBytes"
                                                     : "frame length smaller than its header");
  }
  if (frame_bytes > buffer.size()) {
    return Reject(error, ParseErrorCode::kTruncated, opcode, "frame extends past end of buffer");
  }
  int index = kRequestIndex[opcode];
  if (index < 0) {
    return Reject(error, ParseErrorCode::kBadOpcode, opcode, "opcode not implemented");
  }
  Reader io(buffer.first(frame_bytes), 4, 4, opcode, buffer[1]);
  return kReaders<Request>[index](io, out, error) ? frame_bytes : 0;
}

// ---- Replies ----------------------------------------------------------------

void EncodeReply(const Reply& reply, uint16_t sequence, WireWriter* writer) {
  size_t start = writer->bytes().size();
  if (WriteReply(reply, sequence, writer)) {
    return;
  }
  // A counted field over its decode cap: clamp a copy and write that, so
  // every encoded reply decodes.
  writer->Truncate(start);
  Reply clamped = reply;
  std::visit(
      [](auto& r) {
        Clamp io;
        Fields(io, r);
      },
      clamped);
  WriteReply(clamped, sequence, writer);
}

std::vector<uint8_t> EncodeReplyBytes(const Reply& reply, uint16_t sequence) {
  WireWriter writer;
  EncodeReply(reply, sequence, &writer);
  return writer.Take();
}

size_t DecodeReply(std::span<const uint8_t> buffer, Reply* out, ParseError* error,
                   uint16_t* sequence) {
  if (buffer.size() < 8) {
    return Reject(error, ParseErrorCode::kTruncated, buffer.empty() ? 0 : buffer[0],
                  "buffer shorter than reply header");
  }
  if (buffer[0] != 1) {
    return Reject(error, ParseErrorCode::kBadOpcode, buffer[0],
                  "reply frames start with a one byte");
  }
  uint8_t opcode = buffer[1];
  std::optional<ParseErrorCode> lie;
  size_t frame_bytes = ServerFrameBytes(buffer, &lie);
  if (lie.has_value()) {
    return Reject(error, *lie, opcode, "frame length exceeds kMaxReplyBytes");
  }
  if (frame_bytes > buffer.size()) {
    return Reject(error, ParseErrorCode::kTruncated, opcode, "frame extends past end of buffer");
  }
  int index = kReplyIndex[opcode];
  if (index < 0) {
    return Reject(error, ParseErrorCode::kBadOpcode, opcode, "opcode has no reply");
  }
  Reader io(buffer.first(frame_bytes), 8, kMinReplyBytes, opcode, 0);
  if (!kReaders<Reply>[index](io, out, error)) {
    return 0;
  }
  if (sequence != nullptr) {
    *sequence = Le16(buffer, 2);
  }
  return frame_bytes;
}

// ---- Events -----------------------------------------------------------------

void EncodeEvent(const Event& event, uint16_t sequence, WireWriter* writer) {
  WriteEvent(event, sequence, writer);
}

std::vector<uint8_t> EncodeEventBytes(const Event& event, uint16_t sequence) {
  WireWriter writer;
  EncodeEvent(event, sequence, &writer);
  return writer.Take();
}

size_t DecodeEvent(std::span<const uint8_t> buffer, Event* out, ParseError* error,
                   uint16_t* sequence) {
  if (buffer.size() < kEventWireBytes) {
    return Reject(error, ParseErrorCode::kTruncated, buffer.empty() ? 0 : buffer[0],
                  "event frame shorter than 32 bytes");
  }
  uint8_t code = buffer[0];
  if (sequence != nullptr) {
    *sequence = Le16(buffer, 2);
  }
  int index = kEventIndex[code];
  if (index < 0) {
    return Reject(error, ParseErrorCode::kBadOpcode, code, "event code not implemented");
  }
  Reader io(buffer.first(kEventWireBytes), 4, kEventWireBytes, code, buffer[1],
            kEventRows[index].alt_code);
  return kReaders<Event>[index](io, out, error) ? kEventWireBytes : 0;
}

// ---- Errors -----------------------------------------------------------------

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
    return Reject(parse_error, ParseErrorCode::kTruncated, 0, "error frame short");
  }
  if (buffer[0] != 0) {
    return Reject(parse_error, ParseErrorCode::kBadOpcode, buffer[0],
                  "error frames start with a zero byte");
  }
  if (buffer[1] > static_cast<uint8_t>(ErrorCode::kBadLength)) {
    return Reject(parse_error, ParseErrorCode::kBadValue, 0, "error code out of range");
  }
  WireReader r(buffer.subspan(4, kEventWireBytes - 4));
  out->code = static_cast<ErrorCode>(buffer[1]);
  out->resource_id = r.U32();
  out->sequence = r.U64();
  uint8_t request = r.U8();
  if (request > kMaxRequestCode) {
    return Reject(parse_error, ParseErrorCode::kBadValue, 0, "request code out of range");
  }
  out->request = static_cast<RequestCode>(request);
  return kEventWireBytes;
}

}  // namespace xproto
