#include "trace.h"

#include <cstdio>

namespace e2e {

bool SpanLog::WriteTo(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "# id parent op name start_ns end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(out, "%u %u %llu %s %lld %lld\n", s.id, s.parent,
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace e2e
