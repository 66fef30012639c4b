// bench_e2e: end-to-end latency and throughput of swm serving remote X
// clients, plus a per-layer ledger.  See README.md for the metric -> layer
// -> workload map.
//
//   bench_e2e --workload churn|queries|crowd --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--extra-ledger FILE]
//
// The process forks and execs itself as the server (--serve ...), connects
// one remote xlib::Display per client thread over the server's unix socket,
// and prints a JSON result as its last line.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "load.h"
#include "serve.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string extra_ledger;  // Extension seconds used by earlier runs.
  // Server role (internal).
  bool serve = false;
  std::string socket;
  int ctl_in = -1;
  int ctl_out = -1;
  std::string span_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--serve") {
      args->serve = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--extra-ledger") {
      args->extra_ledger = value;
    } else if (flag == "--socket") {
      args->socket = value;
    } else if (flag == "--ctl-in") {
      args->ctl_in = std::atoi(value.c_str());
    } else if (flag == "--ctl-out") {
      args->ctl_out = std::atoi(value.c_str());
    } else if (flag == "--span-path") {
      args->span_path = value;
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr && args->seconds > 0;
}

// The server as a child process: fork + exec of this binary, steered over
// two pipes.  The destructor kills and reaps it if it is still running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    for (int fd : {to_server_, from_server_}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const Workload& workload, const std::string& socket, const std::string& spans) {
    int down[2], up[2];
    if (::pipe2(down, O_CLOEXEC) != 0 || ::pipe2(up, O_CLOEXEC) != 0) {
      return false;
    }
    std::vector<std::string> argv_strings = {
        "bench_e2e",   "--serve",     "--workload", workload.name,
        "--socket",    socket,        "--ctl-in",   std::to_string(down[0]),
        "--ctl-out",   std::to_string(up[1]),       "--span-path", spans};
    std::vector<char*> argv;
    for (std::string& s : argv_strings) {
      argv.push_back(s.data());
    }
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::fcntl(down[0], F_SETFD, 0);
      ::fcntl(up[1], F_SETFD, 0);
      ::execv("/proc/self/exe", argv.data());
      ::_exit(127);
    }
    ::close(down[0]);
    ::close(up[1]);
    to_server_ = down[1];
    from_server_ = up[0];
    channel_ = std::make_unique<LineChannel>(from_server_, to_server_);
    return pid_ > 0;
  }

  LineChannel& ctl() { return *channel_; }

  // Exit status, or -1 when it had to be killed after `timeout_ms`.
  int Wait(int timeout_ms) {
    int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        return -1;  // The destructor kills it.
      }
      ::usleep(1000);
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int to_server_ = -1;
  int from_server_ = -1;
  std::unique_ptr<LineChannel> channel_;
};

// Output checks accumulated over every session of the run.
struct Checks {
  uint64_t wire_fallbacks = 0;
  uint64_t reply_parse_errors = 0;
  uint64_t closes_other = 0;
  uint64_t server_parse_errors = 0;
  std::vector<std::string> problems;
  void Fail(const std::string& problem) { problems.push_back(problem); }
};

struct Session {
  ServerProcess server;
  std::vector<std::unique_ptr<Client>> clients;
  size_t root_children = 0;
  double setup_s = 0;
  OpStats setup_ops;
};

// A run is at least kSessions sessions.  Each starts a server, sets it up
// (one setup_s sample) and runs a tenth of --seconds as sub-windows of about
// kSubWindowMs.  Figures come from the half of the set-ups and of the
// planned sub-windows in which the hypervisor stole the least CPU
// (README.md "Run-to-run spread").  While that half still includes
// intervals with more than kCalmSteal stolen, the run adds sessions, for
// at most kExtraSeconds.  Runs that share a ledger file extend for at most
// kLedgerSeconds in all, so a host that stays busy cannot stretch a series
// of runs without end.
constexpr int kSessions = 10;
constexpr int kSubWindowMs = 500;
constexpr double kCalmSteal = 0.10;
constexpr int kExtraSeconds = 120;
constexpr int kLedgerSeconds = 600;
// With --trace 1 the last session ends with a traced phase of this share of
// --seconds (the rest runs untraced, as with --trace 0).
constexpr int kTracedDivisor = 5;

// Ledger-sum check (README.md "Traced run and the ledger").  Children may
// overlap or leave their parent for at most 1 % of its time, and the span
// total must match the separately timed total within 1 %.  The unattributed
// share is bounded at about twice the largest seen across the workloads:
// the server loop's own bookkeeping between its three children (1-9 % of
// turn time), and the generator's model updates and reply checks between
// its xlib calls (0.3-16 % of op time, most on queries).
constexpr LedgerLimits kServerLedger = {0.01, 0.15, 0.01};
constexpr LedgerLimits kClientLedger = {0.01, 0.30, 0.01};

// Guest-wide CPU time from /proc/stat, in clock ticks: the hypervisor's
// steal and the total over all states.
struct CpuTimes {
  double steal = 0;
  double total = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  double value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    t.total += value;
    if (field == 7) {
      t.steal = value;
    }
  }
  return t;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  return Frac(after.steal - before.steal, after.total - before.total);
}

// Extension seconds recorded in the ledger; 0 when there is none yet.
double LedgerSeconds(const std::string& path) {
  std::ifstream in(path);
  double seconds = 0;
  return in >> seconds && std::isfinite(seconds) && seconds > 0 ? seconds : 0;
}

// Server start -> connect -> populate -> warm-up, timed as setup_s.  The
// clock starts when the server process begins building the server (the
// steady clock is shared by both processes), so fork and exec, which are
// the host's, not swm's, are left out.
bool StartSession(const Workload& workload, const Args& args, int rep, Session* s) {
  std::string socket = "@swm-bench-e2e-" + std::to_string(::getpid()) + "-" + std::to_string(rep);
  std::string spans = args.out_dir + "/" + workload.name + ".server.spans";
  if (!s->server.Start(workload, socket, spans)) {
    std::cerr << "bench_e2e: cannot start the server process\n";
    return false;
  }
  std::optional<std::string> ready = s->server.ctl().Read(20000);
  std::map<std::string, double> start = DecodeFields(ready.value_or(""));
  if (!ready.has_value() || !ready->starts_with("ready ") || !start.contains("start_ns")) {
    std::cerr << "bench_e2e: server did not come up: " << ready.value_or("(no answer)") << "\n";
    return false;
  }
  int64_t t0 = static_cast<int64_t>(start["start_ns"]);
  for (int i = 0; i < workload.clients; ++i) {
    s->clients.push_back(std::make_unique<Client>(workload, i, args.seed, rep));
  }
  std::vector<char> ok(s->clients.size(), 0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < s->clients.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& c = *s->clients[i];
      ok[i] = c.Connect(socket) && c.Populate();
      if (ok[i]) {
        c.Steps(workload.warmup_steps);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  s->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (auto& c : s->clients) {
    s->setup_ops.Merge(c->TakeStats());
  }
  if (std::count(ok.begin(), ok.end(), 0) != 0) {
    std::cerr << "bench_e2e: set-up failed: " << s->setup_ops.first_problem << "\n";
    return false;
  }
  std::optional<size_t> children = s->clients[0]->RootChildren();
  if (!children.has_value()) {
    return false;
  }
  s->root_children = *children;
  return true;
}

// Closes every client, then has the server confirm that each connection
// closed gracefully before it exits.
bool EndSession(Session* s, Checks* checks) {
  for (auto& c : s->clients) {
    checks->wire_fallbacks += c->wire_stats().wire_fallbacks;
    checks->reply_parse_errors += c->wire_stats().reply_parse_errors;
  }
  size_t expected = s->clients.size();
  s->clients.clear();
  if (!s->server.ctl().Write("finish")) {
    return false;
  }
  std::optional<std::string> line = s->server.ctl().Read(20000);
  int status = s->server.Wait(20000);
  if (!line.has_value() || status != 0) {
    std::cerr << "bench_e2e: server did not shut down cleanly (status " << status << ")\n";
    return false;
  }
  std::map<std::string, double> closes = DecodeFields(*line);
  checks->closes_other += static_cast<uint64_t>(closes["closed_other"]);
  checks->server_parse_errors += static_cast<uint64_t>(closes["parse_errors"]);
  if (closes["closed_graceful"] != static_cast<double>(expected)) {
    checks->Fail("not every connection closed gracefully");
  }
  return true;
}

struct Phase {
  OpStats ops;
  double seconds = 0;
  double steal = 0;  // Share of the guest's CPU time the host stole.
  std::map<std::string, double> server;
  std::vector<SpanLog> spans;  // Per client, traced phases only.
};

// The server's answer to a command; skips the "full" notice a traced phase
// may leave behind.
std::optional<std::string> Answer(LineChannel& ctl, int timeout_ms) {
  std::optional<std::string> line;
  do {
    line = ctl.Read(timeout_ms);
  } while (line == "full");
  return line;
}

bool RunPhase(Session* s, int64_t duration_ns, bool trace, Phase* out) {
  LineChannel& ctl = s->server.ctl();
  if (!ctl.Write(trace ? "mark 1" : "mark 0") || Answer(ctl, 20000) != "ok") {
    std::cerr << "bench_e2e: server did not acknowledge the mark\n";
    return false;
  }
  for (auto& c : s->clients) {
    c->Trace(trace);
  }
  CpuTimes cpu0 = ReadCpuTimes();
  int64_t t0 = NowNs();
  std::atomic<int64_t> stop{t0 + duration_ns};
  std::vector<std::thread> threads;
  for (auto& c : s->clients) {
    threads.emplace_back([&stop, client = c.get()] { client->RunUntil(&stop); });
  }
  // A traced phase also ends when the server's span recorder is full.  The
  // short reads notice a client that ended it first.
  while (trace && NowNs() < stop.load()) {
    if (ctl.Read(5) == "full") {
      stop.store(0);
    }
  }
  for (std::thread& t : threads) {
    t.join();
  }
  out->seconds = static_cast<double>(NowNs() - t0) / 1e9;
  out->steal = StealShare(cpu0, ReadCpuTimes());
  if (!ctl.Write("report")) {
    return false;
  }
  std::optional<std::string> report = Answer(ctl, 60000);
  if (!report.has_value()) {
    std::cerr << "bench_e2e: server sent no report\n";
    return false;
  }
  out->server = DecodeFields(*report);
  for (auto& c : s->clients) {
    out->ops.Merge(c->TakeStats());
    SpanLog log = c->TakeLog();
    if (trace) {
      out->spans.push_back(std::move(log));
    }
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return std::nan("");
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename T>
std::vector<T> Pick(const std::vector<T>& all, const std::vector<size_t>& indices) {
  std::vector<T> picked;
  for (size_t i : indices) {
    picked.push_back(all[i]);
  }
  return picked;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // Sample count and provenance, for the human-readable lines.
};

// Printed with their sample counts but left out of the result's metrics,
// so BENCHMARK.json bounds none of them: queries runs neither operation
// (its WM stays idle), and every bounded metric must come from every
// workload (README.md "End-to-end metrics").
bool Unbounded(const std::string& name) {
  return name.starts_with("map_") || name.starts_with("configure_");
}

void AddTiming(std::vector<Metric>* out, const std::string& stem, const std::vector<double>& us,
               const std::string& origin) {
  Summary s = Summarize(us);
  if (!s.ok()) {
    return;  // The workload does not run this operation.
  }
  char pct[32];
  std::snprintf(pct, sizeof pct, "%.2f", s.high_pct);
  out->push_back({stem + "_p50_us", s.p50, "us", "n=" + std::to_string(s.n) + " " + origin});
  out->push_back({stem + "_p99_us", s.high, "us",
                  "n=" + std::to_string(s.n) + " percentile=" + pct + " " + origin});
}

// Headline metrics over measured sub-windows.  Rates are the median over
// the sub-windows; timing percentiles pool their samples.
std::vector<Metric> EndToEnd(const std::vector<const Phase*>& windows, const Metric& setup,
                             const Metric& rss) {
  OpStats pooled;
  std::vector<double> rates, cpu;
  for (const Phase* w : windows) {
    pooled.Merge(w->ops);
    rates.push_back(static_cast<double>(w->ops.completed) / w->seconds);
    cpu.push_back(PerOp(w->server.at("cpu_us"), w->ops.completed));
  }
  std::string subs = " (median of " + std::to_string(windows.size()) + " sub-windows)";
  std::string origin = "(" + std::to_string(windows.size()) + " sub-windows, pooled)";
  std::vector<Metric> m = {setup};
  m.push_back({"ops_per_s", Median(rates), "1/s",
               "n=" + std::to_string(pooled.completed) + " completed ops" + subs});
  AddTiming(&m, "map", pooled.map_us, origin);
  AddTiming(&m, "configure", pooled.configure_us, origin);
  AddTiming(&m, "query", pooled.query_us, origin);
  m.push_back({"server_cpu_us_per_op", Median(cpu), "us",
               "server process CPU / completed ops, n=" + std::to_string(pooled.completed) +
                   subs});
  m.push_back(rss);
  return m;
}

// A field of the server's report; NaN when it is missing, which no check
// passes and no metric may carry.
double Field(const std::map<std::string, double>& report, const char* key) {
  auto it = report.find(key);
  return it == report.end() ? std::nan("") : it->second;
}

// The server loop's ledger as its report carries it.
Ledger ServerLedger(const std::map<std::string, double>& report) {
  auto ns = [&](const char* key) {
    double x = Field(report, key);
    return std::isfinite(x) ? static_cast<int64_t>(x) : 0;
  };
  Ledger ledger;
  ledger.parents = static_cast<size_t>(ns("ledger_parents"));
  ledger.parent_ns = ns("ledger_parent_ns");
  ledger.children_ns = ns("ledger_children_ns");
  ledger.self_ns = ns("ledger_self_ns");
  ledger.mismatch_ns = ns("ledger_mismatch_ns");
  return ledger;
}

std::vector<Metric> PerLayer(const Phase& traced, const OpStats& all_ops,
                             const Ledger& server_ledger, const Ledger& client_ledger,
                             double overhead_frac) {
  auto v = [&](const char* key) { return Field(traced.server, key); };
  uint64_t ops = traced.ops.completed;
  std::vector<Metric> m;
  std::string per_op_note = "per completed op, n=" + std::to_string(ops) + " ops";
  auto per_op = [&](const char* name, double count, const char* unit) {
    m.push_back({name, PerOp(count, ops), unit, per_op_note});
  };
  auto ratio = [&](const char* name, double part, double whole, const char* unit = "frac") {
    char note[64];
    std::snprintf(note, sizeof note, "%.0f / %.0f", part, whole);
    m.push_back({name, Frac(part, whole), unit, note});
  };
  auto value = [&](const char* name, double x, const char* unit, const char* note) {
    m.push_back({name, x, unit, note});
  };
  per_op("xserver.poll_busy_us", v("poll_cpu_us"), "us");
  ratio("xserver.poll_useful_frac", v("poll_useful"), v("turns"));
  per_op("xserver.requests_per_op", v("requests"), "count");
  per_op("xserver.bytes_in_per_op", v("bytes_in"), "B");
  per_op("xserver.bytes_out_per_op", v("bytes_out"), "B");
  per_op("xserver.replies_per_op", v("replies"), "count");
  per_op("xserver.events_per_op", v("events"), "count");
  per_op("xserver.pumps_per_op", v("pumps"), "count");
  ratio("xserver.idle_pump_frac", v("idle_pumps"), v("pumps"));
  value("xserver.write_queue_peak", v("write_queue_peak"), "B",
        "max over connections, over the whole session");
  per_op("xserver.draw_ops_per_op", v("draw_ops"), "count");
  per_op("xserver.pixels_drawn_per_op", v("pixels_drawn"), "px");
  ratio("xserver.idle_frac", v("idle_us"), v("turn_us"));
  per_op("swm.busy_us", v("wm_cpu_us"), "us");
  ratio("swm.calls_useful_frac", v("wm_useful"), v("turns"));
  per_op("swm.events_per_op", v("wm_events"), "count");
  ratio("swm.coalesced_frac", v("wm_coalesced"), v("wm_events") + v("wm_coalesced"));
  value("swm.quarantines", v("quarantines"), "count", "in the traced window");
  value("swm.dropped", v("dropped"), "count", "in the traced window");
  value("swm.x_errors", v("wm_x_errors"), "count", "in the traced window");
  per_op("oi.layouts_per_op", v("layouts"), "count");
  per_op("oi.objects_painted_per_op", v("objects_painted"), "count");
  per_op("oi.damage_area_per_op", v("damage_area"), "px");
  per_op("xrdb.queries_per_op", v("xrdb_queries"), "count");
  ratio("xrdb.cache_hit_frac", v("xrdb_hits"), v("xrdb_queries"));
  per_op("base.polls_per_op", v("polls"), "count");
  per_op("base.fd_events_per_op", v("fd_events"), "count");
  Summary create = Summarize(all_ops.create_us);
  std::string creates = "n=" + std::to_string(create.n) + " (set-ups and measured windows)";
  value("xlib.create_p50_us", create.p50, "us", creates.c_str());
  value("xlib.create_p99_us", create.high, "us", creates.c_str());
  // 0 / 0 on queries, whose traced window maps and configures nothing.
  ratio("xlib.polls_per_map", static_cast<double>(traced.ops.map_polls),
        static_cast<double>(traced.ops.maps), "count");
  ratio("xlib.polls_per_configure", static_cast<double>(traced.ops.configure_polls),
        static_cast<double>(traced.ops.configures), "count");
  per_op("xlib.events_per_op", static_cast<double>(traced.ops.events), "count");
  value("xlib.x_errors", static_cast<double>(traced.ops.x_errors), "count",
        "in the traced window");
  value("trace.server_self_frac", server_ledger.self_frac(), "frac",
        "turn time in no child span");
  value("trace.client_self_frac", client_ledger.self_frac(), "frac",
        "op time outside xlib spans");
  value("trace.ledger_mismatch_frac",
        std::max(server_ledger.mismatch_frac(), client_ledger.mismatch_frac()), "frac",
        "overlapping or escaping children");
  value("trace.overhead_ops_per_s_frac", overhead_frac, "frac", "(untraced - traced) / untraced");
  return m;
}

std::string JsonNumber(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

std::string Share(double x) {
  char text[32];
  std::snprintf(text, sizeof text, "%.3f", x);
  return text;
}

int RunBenchmark(const Args& args) {
  const Workload& workload = *FindWorkload(args.workload);
  std::error_code ignored;
  std::filesystem::create_directories(args.out_dir, ignored);
  std::cout << "bench_e2e workload=" << workload.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << "\n";
  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " transport=unix socket over loopback (abstract namespace)"
            << " server=1 process, paint_threads=1\n";
  std::cout << "load: " << workload.clients << " connections, one thread each, closed loop,"
            << " no think time; policy=" << workload.policy
            << " template=" << workload.template_name << " windows/client=" << workload.windows
            << " subwindows/window=" << workload.subwindows
            << " unmapped/client=" << workload.unmapped << "\n";

  int64_t run_ns = static_cast<int64_t>(args.seconds) * 1000000000;
  int64_t traced_ns = args.trace ? run_ns / kTracedDivisor : 0;
  int64_t session_ns = (run_ns - traced_ns) / kSessions;
  int64_t subs = std::max<int64_t>(1, session_ns / (int64_t{kSubWindowMs} * 1000000));

  Checks checks;
  std::vector<double> setup_times, setup_steal, window_steal, session_rss;
  OpStats setup_ops;
  std::vector<Phase> windows;  // Every untraced sub-window, in run order.
  Phase traced;
  std::vector<size_t> window_counts;
  size_t keep_setups = kSessions / 2;
  size_t keep_windows = std::max<size_t>(1, static_cast<size_t>(kSessions * subs) / 2);
  // True once the kept half holds only calm intervals.
  auto calm = [&](const std::vector<double>& steal, size_t keep) {
    for (size_t i : LeastStolen(steal, keep)) {
      if (steal[i] > kCalmSteal) {
        return false;
      }
    }
    return true;
  };
  double ledger_s = args.extra_ledger.empty() ? 0 : LedgerSeconds(args.extra_ledger);
  // run.py stops a run after 170 s: the planned part of a run takes about
  // 1.25 x --seconds, so extensions end by 140 s.
  double budget_s = std::clamp(std::min(kLedgerSeconds - ledger_s, 140 - 1.25 * args.seconds),
                               0.0, double{kExtraSeconds});
  int64_t planned_end = 0;
  int64_t untraced_end = 0;
  for (int rep = 0;; ++rep) {
    auto session = std::make_unique<Session>();
    CpuTimes cpu0 = ReadCpuTimes();
    if (!StartSession(workload, args, rep, session.get())) {
      return 1;
    }
    setup_steal.push_back(StealShare(cpu0, ReadCpuTimes()));
    setup_times.push_back(session->setup_s);
    setup_ops.Merge(session->setup_ops);
    double rss = 0;
    for (int64_t k = 0; k < subs; ++k) {
      Phase window;
      if (!RunPhase(session.get(), session_ns / subs, false, &window)) {
        return 1;
      }
      rss = std::max(rss, window.server.at("rss_mb"));
      window_steal.push_back(window.steal);
      windows.push_back(std::move(window));
    }
    session_rss.push_back(rss);
    untraced_end = NowNs();
    if (rep + 1 == kSessions) {
      planned_end = untraced_end;
    }
    bool last = rep + 1 >= kSessions &&
                ((calm(setup_steal, keep_setups) && calm(window_steal, keep_windows)) ||
                 untraced_end - planned_end >= static_cast<int64_t>(budget_s * 1e9));
    if (last && args.trace && !RunPhase(session.get(), traced_ns, true, &traced)) {
      return 1;
    }
    std::optional<size_t> after = session->clients[0]->RootChildren();
    window_counts = {session->root_children, after.value_or(0)};
    if (after != session->root_children) {
      checks.Fail("root window count changed across a session");
    }
    if (!EndSession(session.get(), &checks)) {
      return 1;
    }
    if (last) {
      break;
    }
  }

  double extended_s = static_cast<double>(untraced_end - planned_end) / 1e9;
  if (!args.extra_ledger.empty() && extended_s > 0) {
    std::ofstream ledger(args.extra_ledger, std::ios::trunc);
    ledger << ledger_s + extended_s << "\n";
  }
  std::printf("extension: %.1f s of %.0f s allowed (%.0f s of the ledger's %d s used before)\n",
              extended_s, budget_s, ledger_s, kLedgerSeconds);

  // Figures come from the least-stolen set-ups and sub-windows; failures,
  // checks and the traced phase count everything that ran.
  std::vector<size_t> kept_setups = LeastStolen(setup_steal, keep_setups);
  std::vector<const Phase*> kept;
  for (size_t i : LeastStolen(window_steal, keep_windows)) {
    kept.push_back(&windows[i]);
  }
  auto steal_line = [](const std::vector<double>& steal, const std::vector<size_t>& kept_ids) {
    std::vector<double> kept_steal = Pick(steal, kept_ids);
    return "median " + Share(Median(steal)) + " max " +
           Share(*std::max_element(steal.begin(), steal.end())) + ", kept " +
           std::to_string(kept_ids.size()) + " of " + std::to_string(steal.size()) +
           " with max " + Share(*std::max_element(kept_steal.begin(), kept_steal.end()));
  };
  std::printf("host steal: set-ups %s; sub-windows %s\n",
              steal_line(setup_steal, kept_setups).c_str(),
              steal_line(window_steal, LeastStolen(window_steal, keep_windows)).c_str());
  Metric setup = {"setup_s", Median(Pick(setup_times, kept_setups)), "s",
                  "median of the " + std::to_string(kept_setups.size()) + " least-stolen of " +
                      std::to_string(setup_times.size()) + " set-ups"};
  Metric rss = {"server_rss_mb", Median(session_rss), "MB",
                "server VmHWM, median of " + std::to_string(session_rss.size()) + " sessions"};

  std::vector<const Phase*> ran = {&traced};
  for (const Phase& w : windows) {
    ran.push_back(&w);
  }
  OpStats measured;
  std::map<std::string, double> wm_failures;  // swm's side of the failures.
  for (const Phase* phase : ran) {
    measured.Merge(phase->ops);
    for (const char* key : {"quarantines", "dropped", "wm_x_errors"}) {
      auto it = phase->server.find(key);
      if (it != phase->server.end()) {
        wm_failures[key] += it->second;
      }
    }
  }
  OpStats all_ops = setup_ops;
  all_ops.Merge(measured);
  if (measured.wrong_replies != 0) {
    checks.Fail("wrong replies: " + std::to_string(measured.wrong_replies));
  }
  if (checks.wire_fallbacks != 0 || checks.reply_parse_errors != 0 ||
      checks.server_parse_errors != 0) {
    checks.Fail("wire fallbacks or parse errors");
  }
  if (checks.closes_other != 0) {
    checks.Fail("a connection closed with a non-graceful reason");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(kept, setup, rss);
  } else {
    Ledger client_ledger;
    for (size_t i = 0; i < traced.spans.size(); ++i) {
      client_ledger += CheckLedger(traced.spans[i].spans(), "op.");
      std::string path = args.out_dir + "/" + workload.name + ".client" + std::to_string(i) +
                         ".spans";
      if (!traced.spans[i].WriteTo(path)) {
        checks.Fail("cannot write " + path);
      }
    }
    Ledger server_ledger = ServerLedger(traced.server);
    std::vector<Metric> untraced = EndToEnd(kept, setup, rss);
    std::vector<Metric> with_trace = EndToEnd({&traced}, setup, rss);
    std::printf("traced phase: %.2f s of %.2f s requested%s, host steal %s\n", traced.seconds,
                static_cast<double>(traced_ns) / 1e9,
                traced.seconds * 1e9 < 0.99 * static_cast<double>(traced_ns)
                    ? " (ended when a span recorder filled; every figure covers what ran)"
                    : "",
                Share(traced.steal).c_str());
    for (const Metric& u : untraced) {
      for (const Metric& t : with_trace) {
        if (t.name == u.name && u.name != "setup_s" && u.name != "server_rss_mb") {
          std::printf("overhead %s untraced=%.4f traced=%.4f traced-untraced=%+.4f %s\n",
                      u.name.c_str(), u.value, t.value, t.value - u.value, u.unit.c_str());
        }
      }
    }
    double overhead = Frac(untraced[1].value - with_trace[1].value, untraced[1].value);
    metrics = PerLayer(traced, all_ops, server_ledger, client_ledger, overhead);
    double server_independent = Field(traced.server, "ledger_independent_ns");
    std::string server_problem = LedgerProblem(
        server_ledger, std::isfinite(server_independent) ? static_cast<int64_t>(server_independent) : 0,
        kServerLedger);
    std::string client_problem =
        LedgerProblem(client_ledger, traced.ops.traced_op_ns, kClientLedger);
    std::printf("ledger server: turns=%zu spans=%.0f turn_ns=%lld timed_apart_ns=%.0f "
                "mismatch=%.6f self=%.6f (limits %.2f %.2f %.2f) %s\n",
                server_ledger.parents, Field(traced.server, "spans"),
                static_cast<long long>(server_ledger.parent_ns), server_independent,
                server_ledger.mismatch_frac(), server_ledger.self_frac(), kServerLedger.mismatch,
                kServerLedger.self, kServerLedger.total,
                server_problem.empty() ? "ok" : server_problem.c_str());
    std::printf("ledger client: ops=%zu op_ns=%lld timed_apart_ns=%lld mismatch=%.6f "
                "generator_self=%.6f (limits %.2f %.2f %.2f) %s\n",
                client_ledger.parents, static_cast<long long>(client_ledger.parent_ns),
                static_cast<long long>(traced.ops.traced_op_ns), client_ledger.mismatch_frac(),
                client_ledger.self_frac(), kClientLedger.mismatch, kClientLedger.self,
                kClientLedger.total, client_problem.empty() ? "ok" : client_problem.c_str());
    if (!server_problem.empty() || !client_problem.empty()) {
      checks.Fail("ledger-sum check");
    }
    if (Field(traced.server, "spans_written") != 1) {
      checks.Fail("the server could not write its spans");
    }
  }

  for (const Metric& metric : metrics) {
    std::printf("%-8s %-32s %16.4f %-6s %s%s\n", args.trace ? "layer" : "e2e",
                metric.name.c_str(), metric.value, metric.unit.c_str(), metric.note.c_str(),
                Unbounded(metric.name) ? " [reported, not bounded]" : "");
  }
  std::printf("error_rate %.6f (failed/attempted = %llu/%llu; timeouts=%llu wrong=%llu "
              "x_errors=%llu; swm quarantines=%.0f dropped=%.0f x_errors=%.0f)%s%s\n",
              Frac(static_cast<double>(measured.failed), static_cast<double>(measured.attempted)),
              static_cast<unsigned long long>(measured.failed),
              static_cast<unsigned long long>(measured.attempted),
              static_cast<unsigned long long>(measured.timeouts),
              static_cast<unsigned long long>(measured.wrong_replies),
              static_cast<unsigned long long>(measured.x_errors), wm_failures["quarantines"],
              wm_failures["dropped"], wm_failures["wm_x_errors"],
              measured.first_problem.empty() ? "" : " first: ",
              measured.first_problem.c_str());
  std::printf("checks: wire_fallbacks=%llu reply_parse_errors=%llu closes_other=%llu "
              "root_children=%zu->%zu %s\n",
              static_cast<unsigned long long>(checks.wire_fallbacks),
              static_cast<unsigned long long>(checks.reply_parse_errors),
              static_cast<unsigned long long>(checks.closes_other),
              window_counts.empty() ? 0 : window_counts[0],
              window_counts.empty() ? 0 : window_counts[1],
              checks.problems.empty() ? "ok" : "FAILED");
  for (const std::string& problem : checks.problems) {
    std::printf("check failed: %s\n", problem.c_str());
  }

  std::string json = std::string("{\"correct\": ") +
                     (checks.problems.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(measured.attempted) +
                     ", \"failed\": " + std::to_string(measured.failed) + ", \"metrics\": {";
  const char* separator = "";
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      std::cerr << "bench_e2e: metric " << metric.name << " has no value\n";
      return 1;
    }
    if (Unbounded(metric.name)) {
      continue;
    }
    json += separator + ("\"" + metric.name) + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    separator = ", ";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: bench_e2e --workload churn|queries|crowd --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--extra-ledger FILE]\n";
    return 2;
  }
  if (args.serve) {
    e2e::ServeArgs serve;
    serve.workload = e2e::FindWorkload(args.workload);
    serve.socket_path = args.socket;
    serve.ctl_in = args.ctl_in;
    serve.ctl_out = args.ctl_out;
    serve.span_path = args.span_path;
    return e2e::Serve(serve);
  }
  return e2e::RunBenchmark(args);
}
