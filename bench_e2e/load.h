// The load generator's clients: one remote xlib::Display each, driven in a
// closed loop (the next operation is sent only after the previous one's
// result was observed).  Every reply is checked against the client's own
// model of its windows.
#ifndef BENCH_E2E_LOAD_H_
#define BENCH_E2E_LOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/xlib/display.h"
#include "trace.h"
#include "workload.h"

namespace e2e {

// What one client observed; merged across clients by the orchestrator.
struct OpStats {
  std::vector<double> map_us;        // MapWindow -> viewable in its frame.
  std::vector<double> configure_us;  // Move/resize/raise -> WM reaction seen.
  std::vector<double> query_us;      // Reply-bearing request round trip.
  std::vector<double> create_us;     // xlib CreateWindow (+ its id query).
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t wrong_replies = 0;
  uint64_t timeouts = 0;
  uint64_t x_errors = 0;
  uint64_t maps = 0;
  uint64_t map_polls = 0;
  uint64_t configures = 0;
  uint64_t configure_polls = 0;
  uint64_t events = 0;
  // Wall time of the operations run while tracing, timed apart from their
  // op.* spans (the client side of the ledger check).
  int64_t traced_op_ns = 0;
  std::string first_problem;

  void Merge(const OpStats& other);
};

class Client {
 public:
  // Every (seed, session, index) gives the client its own input stream, so
  // a run's sessions sample different operation sequences.
  Client(const Workload& workload, int index, uint64_t seed, int session);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(const std::string& socket_path);
  // Builds the workload's population; false when it could not.
  bool Populate();
  // `count` workload steps (a churn cycle, or one queries/crowd operation).
  void Steps(int count);
  // Steps until `*stop_ns` has passed; stops only between steps, so the
  // server's window population is back at its set-up size.  A client whose
  // span recorder is full sets `*stop_ns` to 0, ending the phase for all.
  void RunUntil(std::atomic<int64_t>* stop_ns);

  // Children of the root, for the no-growth check.
  std::optional<size_t> RootChildren();
  // Returns what was observed since the last call and starts afresh.
  OpStats TakeStats();
  // Starts a fresh span log, recording or not.
  void Trace(bool on) {
    log_ = SpanLog();
    log_.Enable(on);
  }
  SpanLog TakeLog() { return std::exchange(log_, SpanLog()); }
  const xlib::Display::WireStats& wire_stats() const { return display_->wire_stats(); }

 private:
  struct Win {
    xproto::WindowId id = xproto::kNone;
    xproto::WindowId parent = xproto::kNone;  // Immediate parent once managed.
    xproto::WindowId frame = xproto::kNone;   // The root child holding it.
    xbase::Rect frame_rect;                   // Root coordinates.
    xbase::Point offset;                      // Client origin minus frame origin.
    xbase::Rect geometry;                     // Client, relative to `parent`.
    std::string name;
    xproto::WindowId data_window = xproto::kNone;  // queries: unmapped child.
    std::vector<uint8_t> data;                // queries: its private property.
    std::vector<xproto::WindowId> subs;       // crowd: mapped children.
  };

  // Runs `body` as one operation: counts it, traces it as op.<kind>, and
  // fails it on an X error even when every reply checked out.
  template <typename Body>
  void Op(const char* name, Body&& body);
  // One xlib call, traced as a child of the current operation.
  template <typename Call>
  auto X(const char* name, Call&& call);

  bool Wrong(const std::string& what);
  bool Timeout(const std::string& what);
  int Uniform(int lo, int hi);

  bool CreateTop(Win* win, bool full_hints);
  bool MapAndWait(Win* win);
  bool LearnFrame(Win* win);
  bool ConfigureAndWait(Win* win, uint16_t mask, const xserver::ConfigureValues& values,
                        const xbase::Rect& expect_frame);
  bool Move(Win* win);
  bool Resize(Win* win);
  bool RaiseAndWait(Win* win);
  bool DenyAndWait(Win* win);
  bool Rename(Win* win);
  bool Query(const Win& win);
  bool Write(Win* win);
  Win* ByFrame(xproto::WindowId frame);
  Win* Bottom() { return stack_.empty() ? nullptr : ByFrame(stack_.front()); }
  void Forget(const Win& win);
  void Step();
  bool DestroyAndWait(const Win& win);
  bool Remap(const Win& win);
  bool ReplaceApp(size_t slot);
  bool CreateApp(Win* win);
  // Drains queued events; true when a synthetic ConfigureNotify for `watch`
  // was among them.
  bool DrainEvents(xproto::WindowId watch);
  void Raised(xproto::WindowId frame);

  void ChurnCycle();
  void QueriesStep();
  void CrowdStep();

  const Workload& workload_;
  int index_;
  std::mt19937_64 rng_;
  std::unique_ptr<xlib::Display> display_;
  xproto::WindowId root_ = xproto::kNone;
  std::vector<Win> wins_;
  // Own frames, bottom-most first, as the generator expects them stacked.
  std::vector<xproto::WindowId> stack_;
  std::unordered_set<xproto::WindowId> own_frames_;
  std::vector<std::pair<std::string, xproto::AtomId>> atoms_;
  xproto::AtomId data_atom_ = xproto::kAtomNone;
  xproto::AtomId string_atom_ = xproto::kAtomNone;
  xproto::AtomId wm_name_atom_ = xproto::kAtomNone;
  uint64_t serial_ = 0;

  OpStats stats_;
  SpanLog log_;
  uint64_t op_id_ = 0;
  uint32_t op_span_ = 0;
};

}  // namespace e2e

#endif  // BENCH_E2E_LOAD_H_
