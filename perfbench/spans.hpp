// The benchmark's own spans: one per call it makes into a layer, plus one
// per round as their parent. Kept in memory and written out as Chrome
// trace-event JSON (loadable in Perfetto) when the run ends, beside the
// solver's own Basker::dump_trace file.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Open a span now; close it with close(). Returns its id.
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<size_t>(id)].t1 = Clock::now(); }

  /// Record a span whose interval was already measured.
  void add(std::string name, int parent, Clock::time_point t0, Clock::time_point t1) {
    spans_.push_back({std::move(name), parent, t0, t1});
  }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.parent < 0 ? 0 : 1, us(s.t0),
                   us(s.t1) - us(s.t0), i, s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point t0, t1;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
