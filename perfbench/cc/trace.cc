#include "trace.h"

#include <cstdio>

namespace ajr::perfbench {

int32_t Tracer::Begin(const char* name, int32_t parent, uint32_t query) {
  if (!enabled_) return kNoSpan;
  spans_.push_back({name, Now(), -1, parent, query});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  if (id != kNoSpan) spans_[id].end_ns = Now();
}

Status Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open span file " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"query\":%lld}\n",
                 i, s.name, s.start_ns / 1e3, s.end_ns / 1e3, s.parent,
                 s.query == kNoQuery ? -1LL : static_cast<long long>(s.query));
  }
  bool ok = !std::ferror(f);
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::OK() : Status::Internal("cannot write span file " + path);
}

}  // namespace ajr::perfbench
