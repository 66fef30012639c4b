// The server process: xserver::Server + swm::WindowManager + WireHost on a
// unix socket, driven by one instrumented loop (README.md "Server loop").
#ifndef BENCH_E2E_SERVE_H_
#define BENCH_E2E_SERVE_H_

#include <string>

#include "workload.h"

namespace e2e {

struct ServeArgs {
  const Workload* workload = nullptr;
  std::string socket_path;
  int ctl_in = -1;   // Commands from the generator.
  int ctl_out = -1;  // Replies to the generator.
  std::string span_path;  // Where a traced window's spans are written.
};

// Runs until the generator sends "finish" and every connection has closed.
// Exit status 0 means the server came up and shut down cleanly.
int Serve(const ServeArgs& args);

}  // namespace e2e

#endif  // BENCH_E2E_SERVE_H_
