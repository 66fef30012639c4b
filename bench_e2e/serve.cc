#include "serve.h"

#include <poll.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <map>
#include <vector>

#include "src/swm/wm.h"
#include "src/xserver/server.h"
#include "src/xserver/wire_host.h"
#include "stats.h"
#include "trace.h"

namespace e2e {

namespace {

int64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double ProcessCpuUs() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// High-water RSS of this process image (VmHWM), in MiB.  getrusage's
// ru_maxrss would include the generator image this process was forked from.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

// Every layer's monotone counters, read through public accessors only.
struct Counters {
  std::map<std::string, uint64_t> values;
  double cpu_us = 0;
};

void AddConnectionStats(const xserver::Connection::Stats& s, Counters* c) {
  c->values["requests"] += s.requests_dispatched;
  c->values["bytes_in"] += s.bytes_read;
  c->values["bytes_out"] += s.bytes_written;
  c->values["replies"] += s.replies_queued;
  c->values["events"] += s.events_queued;
  c->values["pumps"] += s.pumps;
  c->values["idle_pumps"] += s.idle_pumps;
  c->values["parse_errors"] += s.parse_errors;
  c->values["errors_queued"] += s.errors_queued;
}

struct Turns {
  uint64_t turns = 0;
  uint64_t poll_useful = 0;
  uint64_t wm_useful = 0;
  int64_t poll_cpu_ns = 0;
  int64_t wm_cpu_ns = 0;
  int64_t idle_ns = 0;
  int64_t turn_ns = 0;
};

class ServerLoop {
 public:
  explicit ServerLoop(const ServeArgs& args)
      : args_(args),
        server_({xserver::ScreenConfig{1152, 900, false}}),
        wm_(&server_, WmOptions(*args.workload)),
        ctl_(args.ctl_in, args.ctl_out) {}

  // `start_ns`: when the server process began building the server.
  int Run(int64_t start_ns);

 private:
  static swm::WindowManager::Options WmOptions(const Workload& workload) {
    swm::WindowManager::Options options;
    options.template_name = workload.template_name;
    options.resources = std::string("swm.layout.policy: ") + workload.policy + "\n";
    options.paint_threads = 1;
    return options;
  }

  Counters Read();
  void Turn(int timeout_ms);
  // Returns false when the loop should end.
  bool Handle(const std::string& command);
  std::string Report();

  const ServeArgs& args_;
  xserver::Server server_;
  swm::WindowManager wm_;
  LineChannel ctl_;
  std::unique_ptr<xserver::WireHost> host_;

  // Counters of connections that already closed, so window deltas stay
  // monotone.
  Counters retired_;
  size_t write_queue_peak_ = 0;
  std::map<std::string, uint64_t> closes_;

  bool traced_phase_ = false;  // Between "mark 1" and its report.
  bool tracing_ = false;        // Recording spans (until the log is full).
  bool generator_gone_ = false;
  bool finishing_ = false;
  int64_t finish_deadline_ns_ = 0;
  Counters mark_;
  Turns turns_;
  SpanLog log_{1 << 21};  // About four turn spans per generator op span.
  std::vector<pollfd> fds_;
};

Counters ServerLoop::Read() {
  Counters c = retired_;
  for (xproto::ClientId client : host_->clients()) {
    if (const xserver::Connection* conn = host_->FindConnection(client)) {
      AddConnectionStats(conn->stats(), &c);
      write_queue_peak_ = std::max(write_queue_peak_, conn->stats().write_queue_peak);
    }
  }
  const xbase::EventLoop::Stats& loop = host_->loop().stats();
  c.values["polls"] = loop.polls;
  c.values["fd_events"] = loop.fd_events;
  c.values["draw_ops"] = server_.render_stats().draw_ops;
  c.values["pixels_drawn"] = static_cast<uint64_t>(server_.render_stats().pixels_drawn);
  c.values["wm_events"] = wm_.events_dispatched();
  c.values["wm_coalesced"] = wm_.events_coalesced();
  c.values["quarantines"] = wm_.ledger().quarantines_started();
  c.values["dropped"] = wm_.ledger().dropped();
  c.values["wm_x_errors"] = wm_.x_error_count();
  c.values["dispatch_errors"] = wm_.dispatch_error_count();
  const oi::FrameScheduler::Stats& frame = wm_.toolkit(0).frame_stats();
  c.values["layouts"] = frame.layouts;
  c.values["objects_painted"] = frame.objects_painted;
  c.values["damage_area"] = frame.damage_area;
  const oi::Toolkit::QueryStats& query = wm_.toolkit(0).query_stats();
  c.values["xrdb_queries"] = query.queries;
  c.values["xrdb_hits"] = query.cache_hits;
  c.cpu_us = ProcessCpuUs();
  return c;
}

// One loop turn: wait for readiness (idle), pump every ready connection
// (xserver.poll: socket read, decode, apply, encode, write), then let swm
// react (swm.process_events: manage, policy, layout, paint).
void ServerLoop::Turn(int timeout_ms) {
  int64_t start = tracing_ ? NowNs() : 0;  // The turn timed apart from its span.
  uint32_t turn = log_.Root("turn", turns_.turns);
  int64_t t0 = NowNs();

  fds_.clear();
  fds_.push_back({ctl_.read_fd(), POLLIN, 0});
  for (xproto::ClientId client : host_->clients()) {
    if (const xserver::Connection* conn = host_->FindConnection(client)) {
      short events = POLLIN;
      if (conn->outbound_queued() > 0) {
        events |= POLLOUT;
      }
      fds_.push_back({conn->PollFd(), events, 0});
    }
  }
  while (::poll(fds_.data(), fds_.size(), timeout_ms) < 0 && errno == EINTR) {
  }
  int64_t t1 = NowNs();
  log_.Add("idle", turn, t0, t1);
  if ((fds_[0].revents & (POLLHUP | POLLERR)) != 0 && (fds_[0].revents & POLLIN) == 0) {
    generator_gone_ = true;
  }

  int64_t c0 = tracing_ ? ThreadCpuNs() : 0;
  uint32_t poll_span = log_.Child("xserver.poll", turn);
  int dispatched = host_->PollOnce(0);
  log_.End(poll_span);
  int64_t c1 = tracing_ ? ThreadCpuNs() : 0;

  uint64_t events_before = wm_.events_dispatched();
  uint32_t wm_span = log_.Child("swm.process_events", turn);
  wm_.ProcessEvents();
  log_.End(wm_span);
  int64_t c2 = tracing_ ? ThreadCpuNs() : 0;
  log_.End(turn);

  ++turns_.turns;
  turns_.poll_useful += dispatched > 0 ? 1 : 0;
  turns_.wm_useful += wm_.events_dispatched() != events_before ? 1 : 0;
  if (tracing_) {
    turns_.poll_cpu_ns += c1 - c0;
    turns_.wm_cpu_ns += c2 - c1;
    turns_.idle_ns += t1 - t0;
    turns_.turn_ns += NowNs() - start;
    if (log_.full()) {
      // Spans and the totals above stop together; the generator ends the
      // phase on "full".
      tracing_ = false;
      log_.Enable(false);
      ctl_.Write("full");
    }
  }
}

std::string ServerLoop::Report() {
  Counters now = Read();
  std::map<std::string, double> fields;
  for (const auto& [key, value] : now.values) {
    fields[key] = Delta(value, mark_.values[key]);
  }
  fields["cpu_us"] = now.cpu_us - mark_.cpu_us;
  fields["rss_mb"] = PeakRssMb();
  // Connection::Stats keeps one peak per connection lifetime, so this one
  // covers the session (set-up, warm-up and every window), not the window.
  fields["write_queue_peak"] = static_cast<double>(write_queue_peak_);
  fields["turns"] = static_cast<double>(turns_.turns);
  fields["poll_useful"] = static_cast<double>(turns_.poll_useful);
  fields["wm_useful"] = static_cast<double>(turns_.wm_useful);
  if (traced_phase_) {
    fields["poll_cpu_us"] = static_cast<double>(turns_.poll_cpu_ns) / 1e3;
    fields["wm_cpu_us"] = static_cast<double>(turns_.wm_cpu_ns) / 1e3;
    fields["idle_us"] = static_cast<double>(turns_.idle_ns) / 1e3;
    fields["turn_us"] = static_cast<double>(turns_.turn_ns) / 1e3;
    Ledger ledger = CheckLedger(log_.spans(), "turn");
    fields["ledger_parents"] = static_cast<double>(ledger.parents);
    fields["ledger_parent_ns"] = static_cast<double>(ledger.parent_ns);
    fields["ledger_children_ns"] = static_cast<double>(ledger.children_ns);
    fields["ledger_self_ns"] = static_cast<double>(ledger.self_ns);
    fields["ledger_mismatch_ns"] = static_cast<double>(ledger.mismatch_ns);
    fields["ledger_independent_ns"] = static_cast<double>(turns_.turn_ns);
    fields["spans"] = static_cast<double>(log_.spans().size());
    fields["spans_written"] = log_.WriteTo(args_.span_path) ? 1 : 0;
    log_.Enable(false);
    tracing_ = false;
    traced_phase_ = false;
  }
  return EncodeFields(fields);
}

bool ServerLoop::Handle(const std::string& command) {
  if (command.starts_with("mark")) {
    tracing_ = command == "mark 1";
    traced_phase_ = tracing_;
    log_.Clear();
    log_.Enable(tracing_);
    turns_ = {};
    mark_ = Read();
    return ctl_.Write("ok");
  }
  if (command == "report") {
    return ctl_.Write(Report());
  }
  if (command == "finish") {
    finishing_ = true;
    finish_deadline_ns_ = NowNs() + 5'000'000'000;
    return true;
  }
  return false;
}

int ServerLoop::Run(int64_t start_ns) {
  if (!wm_.Start()) {
    ctl_.Write("error: swm did not start");
    return 2;
  }
  wm_.ProcessEvents();
  xserver::WireHostOptions host_options;
  host_options.limits = wm_.TransportLimits();
  host_options.on_close = [this](const xserver::Connection& conn) {
    AddConnectionStats(conn.stats(), &retired_);
    write_queue_peak_ = std::max(write_queue_peak_, conn.stats().write_queue_peak);
    // A client closing its socket between requests is the graceful close
    // of a remote display; anything else is a failed session.
    bool graceful = (conn.close_reason() == xserver::CloseReason::kPeerClosed &&
                     !conn.died_mid_frame()) ||
                    conn.close_reason() == xserver::CloseReason::kGracefulDrain;
    ++closes_[graceful ? "closed_graceful" : "closed_other"];
  };
  host_ = std::make_unique<xserver::WireHost>(&server_, args_.socket_path,
                                              std::move(host_options));
  if (!host_->ok()) {
    ctl_.Write("error: cannot listen on " + args_.socket_path);
    return 3;
  }
  ctl_.Write("ready start_ns=" + std::to_string(start_ns));

  const size_t clients = static_cast<size_t>(args_.workload->clients);
  for (;;) {
    // Poll briefly while connections are expected to come or go: accepts
    // arrive on the listener, which only the host's own epoll watches.
    bool settling = finishing_ || host_->connection_count() < clients;
    Turn(settling ? 1 : 20);
    if (generator_gone_) {
      return 6;
    }
    while (std::optional<std::string> command = ctl_.TryRead()) {
      if (!Handle(*command)) {
        return 4;
      }
    }
    if (finishing_ && (host_->connection_count() == 0 || NowNs() > finish_deadline_ns_)) {
      std::map<std::string, double> fields;
      fields["closed_graceful"] = static_cast<double>(closes_["closed_graceful"]);
      fields["closed_other"] = static_cast<double>(closes_["closed_other"]);
      fields["still_open"] = static_cast<double>(host_->connection_count());
      fields["parse_errors"] = static_cast<double>(retired_.values["parse_errors"]);
      ctl_.Write(EncodeFields(fields));
      return host_->connection_count() == 0 ? 0 : 5;
    }
  }
}

}  // namespace

int Serve(const ServeArgs& args) {
  int64_t start_ns = NowNs();
  ServerLoop loop(args);
  return loop.Run(start_ns);
}

}  // namespace e2e
