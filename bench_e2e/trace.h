// In-memory span recorder for the traced run (README.md "Traced run").
// One recorder per thread; nothing is shared, so no locking.  Spans are
// written out only when the benchmark ends.
#ifndef BENCH_E2E_TRACE_H_
#define BENCH_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  // Root spans stop being recorded once `root_cap` spans exist; children of
  // a recorded root are always kept, so every recorded subtree is whole.
  // A traced phase ends when a recorder is full (README.md "Traced run").
  explicit SpanLog(size_t root_cap = 1 << 19) : root_cap_(root_cap) {}

  // Turning recording on reserves the whole cap up front (untouched pages
  // cost no memory), so the traced phase never stalls on a reallocation.
  void Enable(bool on) {
    on_ = on;
    if (on) {
      spans_.reserve(root_cap_ + 256);
    }
  }
  bool enabled() const { return on_; }
  bool full() const { return spans_.size() >= root_cap_; }

  // Starts a root span; returns its id, or 0 when tracing is off or the
  // root cap is reached.  `name` must be a string literal.
  uint32_t Root(const char* name, uint64_t op) {
    if (!on_ || spans_.size() >= root_cap_) {
      return 0;
    }
    return Push(name, 0, op, NowNs());
  }
  // Starts a child of `parent`; 0 (nothing recorded) when the parent wasn't.
  uint32_t Child(const char* name, uint32_t parent) {
    if (parent == 0) {
      return 0;
    }
    return Push(name, parent, spans_[parent - 1].op, NowNs());
  }
  void End(uint32_t id) {
    if (id != 0) {
      spans_[id - 1].end_ns = NowNs();
    }
  }
  // Records a finished child span the caller timed itself.
  void Add(const char* name, uint32_t parent, int64_t start_ns, int64_t end_ns) {
    if (parent != 0) {
      spans_[Push(name, parent, spans_[parent - 1].op, start_ns) - 1].end_ns = end_ns;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

  // One span per line: id parent op name start_ns end_ns.
  bool WriteTo(const std::string& path) const;

 private:
  uint32_t Push(const char* name, uint32_t parent, uint64_t op, int64_t start_ns) {
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = start_ns;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.op = op;
    spans_.push_back(span);
    return span.id;
  }

  bool on_ = false;
  size_t root_cap_;
  std::vector<Span> spans_;
};

// Child span for the lifetime of a scope (nothing when the parent is 0).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t parent)
      : log_(log), id_(log->Child(name, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_;
};

}  // namespace e2e

#endif  // BENCH_E2E_TRACE_H_
