// The three workloads (README.md "Workloads") and the line protocol the
// load generator uses to steer the server process it spawned.
#ifndef BENCH_E2E_WORKLOAD_H_
#define BENCH_E2E_WORKLOAD_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace e2e {

enum class Kind { kChurn, kQueries, kCrowd };

struct Workload {
  Kind kind;
  const char* name;
  const char* policy;         // swm.layout.policy
  const char* template_name;  // built-in swm resource template
  int clients;                // connections, one generator thread each
  int windows;                // managed top-levels per client after set-up
  int subwindows;             // mapped children per top-level
  int unmapped;               // never-mapped top-levels per client
  int warmup_steps;           // steps per client before timing starts
};

// churn: 16 live top-levels per client plus the one each cycle creates.
// queries: 32 managed windows per client, then reads and property writes.
// crowd: 3 x (20 x (1 + 30) + 150) = 2,310 client windows plus frames.
inline constexpr Workload kWorkloads[] = {
    {Kind::kChurn, "churn", "floating", "openlook", 3, 16, 0, 0, 2},
    {Kind::kQueries, "queries", "floating", "openlook", 3, 32, 0, 0, 300},
    {Kind::kCrowd, "crowd", "dynamic", "motif", 3, 20, 30, 150, 30},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// Newline-framed messages over a pair of pipe fds.  Reads block with a
// deadline; a closed or silent peer yields nullopt.
class LineChannel {
 public:
  LineChannel(int read_fd, int write_fd) : read_fd_(read_fd), write_fd_(write_fd) {}
  bool Write(const std::string& line);
  std::optional<std::string> Read(int timeout_ms);
  // Next complete line already buffered or readable without waiting.
  std::optional<std::string> TryRead() { return Read(0); }
  int read_fd() const { return read_fd_; }

 private:
  int read_fd_;
  int write_fd_;
  std::string buffer_;
};

// "key=value key=value ..." <-> map.  Values are doubles.
std::string EncodeFields(const std::map<std::string, double>& fields);
std::map<std::string, double> DecodeFields(std::string_view line);

}  // namespace e2e

#endif  // BENCH_E2E_WORKLOAD_H_
