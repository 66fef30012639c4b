#include "workload.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "trace.h"

namespace e2e {

bool LineChannel::Write(const std::string& line) {
  std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::write(write_fd_, framed.data() + sent, framed.size() - sent);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::optional<std::string> LineChannel::Read(int timeout_ms) {
  int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  for (;;) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    int64_t remaining_ms = (deadline - NowNs()) / 1000000;
    struct pollfd pfd = {read_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(remaining_ms > 0 ? remaining_ms : 0));
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      return std::nullopt;
    }
    char chunk[4096];
    ssize_t n = ::read(read_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return std::nullopt;  // Peer closed.
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string EncodeFields(const std::map<std::string, double>& fields) {
  std::string out;
  char value[64];
  for (const auto& [key, v] : fields) {
    std::snprintf(value, sizeof value, "%.17g", v);
    if (!out.empty()) {
      out += ' ';
    }
    out += key + "=" + value;
  }
  return out;
}

std::map<std::string, double> DecodeFields(std::string_view line) {
  std::map<std::string, double> fields;
  while (!line.empty()) {
    size_t end = line.find(' ');
    std::string_view item = line.substr(0, end);
    size_t eq = item.find('=');
    if (eq != std::string_view::npos) {
      fields[std::string(item.substr(0, eq))] =
          std::strtod(std::string(item.substr(eq + 1)).c_str(), nullptr);
    }
    if (end == std::string_view::npos) {
      break;
    }
    line.remove_prefix(end + 1);
  }
  return fields;
}

}  // namespace e2e
