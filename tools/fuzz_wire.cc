// Wire-codec fuzz harness (docs/PROTOCOL.md).
//
// One entry point, two drivers:
//
//   * Built with -DSWM_LIBFUZZER=ON (clang only), this is a libFuzzer target:
//     LLVMFuzzerTestOneInput feeds arbitrary bytes through every decoder and
//     through Server::DispatchBytes on a live connection.
//
//   * Built normally, `fuzz_wire` is a standalone corpus runner: each argv is
//     a corpus file or directory of corpus files, replayed through the same
//     FuzzOne; with no args it generates 50k seeded-random inputs and checks
//     that the encoder refuses every request field one past its cap.  Exit 0
//     means no decoder crashed, overread, or tripped a sanitizer, and every
//     frame a decoder accepted re-encoded to an equal value (the asymmetry
//     gate aborts otherwise).
//
// Either way the contract under test is the same one the unit suites hold
// the codec to: malformed bytes yield a typed ParseError (an X error on the
// dispatch path), never UB.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/xproto/trace.h"
#include "src/xproto/transport.h"
#include "src/xproto/wire.h"
#include "src/xserver/connection.h"
#include "src/xserver/faults.h"
#include "src/xserver/server.h"

namespace {

[[noreturn]] void Asymmetry(const std::string& what) {
  std::fprintf(stderr, "fuzz_wire: codec asymmetry: %s\n", what.c_str());
  std::abort();
}

// Whatever a decoder accepts, the matching encoder must write, and what it
// writes must decode back to an equal value.
void CheckReencodes(std::span<const uint8_t> data) {
  xproto::ParseError error;
  xproto::Request request;
  if (xproto::DecodeRequest(data, &request, &error) > 0) {
    std::vector<uint8_t> again = xproto::EncodeRequestBytes(request);
    xproto::Request twice;
    if (again.empty() || xproto::DecodeRequest(again, &twice, &error) != again.size() ||
        !(twice == request)) {
      Asymmetry("request " + xproto::WireRequestName(request));
    }
  }
  xproto::Reply reply;
  uint16_t sequence = 0;
  if (xproto::DecodeReply(data, &reply, &error, &sequence) > 0) {
    std::vector<uint8_t> again = xproto::EncodeReplyBytes(reply, sequence);
    xproto::Reply twice;
    if (xproto::DecodeReply(again, &twice, &error) != again.size() || !(twice == reply)) {
      Asymmetry("reply " + xproto::WireReplyName(reply));
    }
  }
  xproto::Event event;
  if (xproto::DecodeEvent(data, &event, &error, &sequence) > 0) {
    std::vector<uint8_t> again = xproto::EncodeEventBytes(event, sequence);
    xproto::Event twice;
    if (xproto::DecodeEvent(again, &twice, &error) != again.size() || !(twice == event)) {
      Asymmetry("event " + xproto::EventName(event));
    }
  }
  xproto::XError xerror;
  if (xproto::DecodeError(data, &xerror, &error) > 0) {
    xproto::WireWriter w;
    xproto::EncodeError(xerror, &w);
    xproto::XError twice;
    if (xproto::DecodeError(w.span(), &twice, &error) != w.bytes().size() ||
        twice.code != xerror.code || twice.request != xerror.request ||
        twice.resource_id != xerror.resource_id || twice.sequence != xerror.sequence) {
      Asymmetry("error frame");
    }
  }
}

// Every variable-length request field one past its cap must be refused by
// the encoder: the server's decoder would reject the frame.
void CheckRefusesPastCaps() {
  const std::string past_text(xproto::kMaxWireStringBytes + 1, 'x');
  std::vector<xproto::Request> past_cap = {
      xproto::ChangePropertyRequest{
          .window = 1, .data = std::vector<uint8_t>(xproto::kMaxRequestBytes - 23)},
      xproto::SetCursorRequest{.window = 1, .name = past_text},
      xproto::InternAtomRequest{.name = past_text},
      xproto::DrawRequest{.window = 1,
                          .kind = 2,
                          .rect = {},
                          .text = past_text,
                          .bitmap_cells = {}},
      xproto::DrawRequest{.window = 1,
                          .kind = 4,
                          .rect = {},
                          .text = {},
                          .bitmap_width = 1,
                          .bitmap_height = static_cast<int>(xproto::kMaxWireBitmapCells) + 1,
                          .bitmap_cells = std::vector<uint8_t>(xproto::kMaxWireBitmapCells + 1)},
      xproto::ShapeRegionRequest{
          .window = 1, .rects = std::vector<xbase::Rect>(xproto::kMaxWireRects + 1)},
  };
  for (const xproto::Request& request : past_cap) {
    if (!xproto::EncodeRequestBytes(request).empty()) {
      Asymmetry("encoder wrote an over-cap " + xproto::WireRequestName(request));
    }
  }
}

// A persistent server so consecutive inputs fuzz against accumulated state;
// recycled periodically so window/property tables stay bounded.
struct FuzzTarget {
  std::unique_ptr<xserver::Server> server;
  xproto::ClientId client = 0;
  int inputs = 0;

  void Reset() {
    server = std::make_unique<xserver::Server>();
    client = server->Connect("fuzzer");
    inputs = 0;
  }
};

void FuzzOne(std::span<const uint8_t> data) {
  static FuzzTarget target;
  if (!target.server || ++target.inputs > 512) {
    target.Reset();
  }

  // Pure decoders: every parser the wire subset has, each accepted frame
  // re-encoded through the asymmetry gate.
  CheckReencodes(data);
  xproto::Request request;
  xproto::ParseError error;
  xproto::Event event;
  xproto::XError xerror;
  xproto::Reply reply;
  uint16_t sequence = 0;
  xproto::ParseTrace(data, &error);

  // Frame reassembly in arbitrary slices, both stream directions: framing
  // must never buffer past its cap, hang on a length lie, or hand a decoder
  // bytes it was not fed.  Slice sizes derive from the input so every run
  // of one input reassembles identically.
  uint64_t slice_seed = 1469598103934665603ull;
  for (uint8_t b : data) {
    slice_seed = (slice_seed ^ b) * 1099511628211ull;
  }
  for (xproto::FrameStream direction :
       {xproto::FrameStream::kRequests, xproto::FrameStream::kServerToClient}) {
    xserver::FaultRng slicer(slice_seed | 1);
    xproto::FrameReassembler reasm(direction, /*buffer_cap=*/1u << 16);
    size_t offset = 0;
    while (offset < data.size()) {
      size_t n = std::min(data.size() - offset,
                          static_cast<size_t>(slicer.Range(1, 48)));
      if (!reasm.Feed(data.subspan(offset, n))) {
        break;  // Overflow latched; the reassembler is done.
      }
      while (std::optional<std::vector<uint8_t>> frame = reasm.NextFrame()) {
        if (direction == xproto::FrameStream::kRequests) {
          xproto::DecodeRequest(*frame, &request, &error);
        } else {
          xproto::DecodeReply(*frame, &reply, &error, &sequence);
          xproto::DecodeEvent(*frame, &event, &error);
          xproto::DecodeError(*frame, &xerror, &error);
        }
      }
      offset += n;
    }
  }

  // The full dispatch path: parse, raise X errors, execute what survives.
  target.server->DispatchBytes(target.client, data);

  // The duplex session: the same bytes as a hostile client stream over a
  // real socketpair connection.  The connection must end in a typed close
  // (or stay healthy), and the endpoint must survive whatever error, reply
  // and event frames travel back.
  xproto::ChannelPair pair = xproto::MakeSocketPair();
  if (pair.client && pair.server) {
    xserver::Connection conn(target.server.get(), std::move(pair.server),
                             "fuzz-duplex");
    conn.Establish();
    xproto::WireClientEndpoint ep(std::move(pair.client));
    ep.QueueBytes(data);
    for (int i = 0; i < 8; ++i) {
      ep.Flush();
      conn.Pump();
      ep.Poll();
      if (conn.state() == xserver::ConnectionState::kClosed) {
        break;
      }
    }
    while (std::optional<std::vector<uint8_t>> frame = ep.NextFrame()) {
      xproto::DecodeReply(*frame, &reply, &error, &sequence);
      xproto::DecodeEvent(*frame, &event, &error);
      xproto::DecodeError(*frame, &xerror, &error);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  FuzzOne(std::span<const uint8_t>(data, size));
  return 0;
}

#ifndef SWM_LIBFUZZER

namespace {

int RunFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fuzz_wire: cannot read %s\n", path.c_str());
    return 1;
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  size_t corpus_files = 0;
  for (int i = 1; i < argc; ++i) {
    std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      for (const auto& entry : std::filesystem::directory_iterator(arg)) {
        if (entry.is_regular_file()) {
          if (RunFile(entry.path().string()) != 0) return 1;
          ++corpus_files;
        }
      }
    } else {
      if (RunFile(arg.string()) != 0) return 1;
      ++corpus_files;
    }
  }

  if (corpus_files == 0) {
    // No corpus given: seeded-random smoke mode.
    xserver::FaultRng rng(0xF0221);
    for (int iter = 0; iter < 50000; ++iter) {
      std::vector<uint8_t> bytes(static_cast<size_t>(rng.Range(0, 128)));
      for (uint8_t& b : bytes) {
        b = static_cast<uint8_t>(rng.Next() % 256);
      }
      LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
    }
    // Uniform bytes almost never form a reply header, so sweep one for every
    // opcode (the fixed-size QueryLastCreated reply included) over garbage
    // payloads of 32..44 bytes, length field honest or not.
    for (int opcode = 0; opcode < 256; ++opcode) {
      for (size_t size = 32; size <= 44; size += 4) {
        std::vector<uint8_t> frame(size);
        for (uint8_t& b : frame) {
          b = static_cast<uint8_t>(rng.Next() % 256);
        }
        frame[0] = 1;
        frame[1] = static_cast<uint8_t>(opcode);
        frame[4] = rng.Next() % 2 == 0 ? static_cast<uint8_t>((size - 32) / 4) : frame[4];
        frame[5] = frame[6] = frame[7] = 0;
        LLVMFuzzerTestOneInput(frame.data(), frame.size());
      }
    }
    CheckRefusesPastCaps();
    std::printf(
        "fuzz_wire: 50000 seeded-random inputs + reply-header sweep, no crashes, "
        "no codec asymmetry\n");
  } else {
    std::printf("fuzz_wire: replayed %zu corpus file(s), no crashes\n", corpus_files);
  }
  return 0;
}

#endif  // SWM_LIBFUZZER
