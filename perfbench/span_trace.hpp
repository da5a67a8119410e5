// Benchmark-side spans: each bench thread records (name, id, parent,
// start, end) around its calls into the library, in memory, and the
// whole set is written out when the benchmark ends.  Nothing here touches
// the library's own telemetry, which stays at its default (off).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = "";  ///< string literal; compared by content
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root span
    Clock::time_point start{};
    Clock::time_point end{};
  };

  /// One thread's span buffer.  Bounded: past the cap, spans are counted
  /// as dropped instead of stored, so a long traced run keeps its memory.
  class Log {
   public:
    void add(const char* name, std::uint64_t id, std::uint64_t parent,
             Clock::time_point start, Clock::time_point end) {
      if (records_.size() < cap_) {
        records_.push_back({name, id, parent, start, end});
      } else {
        ++dropped_;
      }
    }

   private:
    friend class Tracer;
    explicit Log(std::size_t cap) : cap_(cap) { records_.reserve(cap); }
    std::size_t cap_;
    std::vector<Record> records_;
    std::size_t dropped_ = 0;
  };

  explicit Tracer(std::size_t cap_per_thread = 200'000)
      : cap_(cap_per_thread), t0_(Clock::now()) {}

  /// A fresh buffer for the calling thread; the tracer owns it.
  Log& thread_log() {
    std::lock_guard lock(mutex_);
    logs_.push_back(std::unique_ptr<Log>(new Log(cap_)));
    return *logs_.back();
  }

  /// Durations (µs) of every recorded span called `name`.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const {
    std::lock_guard lock(mutex_);
    std::vector<double> out;
    for (const auto& log : logs_) {
      for (const auto& r : log->records_) {
        if (name == r.name) {
          out.push_back(seconds_between(r.start, r.end) * 1e6);
        }
      }
    }
    return out;
  }

  /// Writes every span as one tab-separated line:
  /// thread, name, id, parent, start_ns, duration_ns (start relative to
  /// the tracer's creation), then a "# dropped <n>" line counting the spans
  /// past the per-thread cap.  Returns false when the file cannot be written.
  bool write(const std::string& path) const {
    std::lock_guard lock(mutex_);
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out << "thread\tname\tid\tparent\tstart_ns\tduration_ns\n";
    std::size_t dropped = 0;
    for (std::size_t t = 0; t < logs_.size(); ++t) {
      dropped += logs_[t]->dropped_;
      for (const auto& r : logs_[t]->records_) {
        out << t << '\t' << r.name << '\t' << r.id << '\t' << r.parent << '\t'
            << std::chrono::duration_cast<std::chrono::nanoseconds>(r.start - t0_)
                   .count()
            << '\t'
            << std::chrono::duration_cast<std::chrono::nanoseconds>(r.end -
                                                                    r.start)
                   .count()
            << '\n';
      }
    }
    out << "# dropped " << dropped << '\n';
    return static_cast<bool>(out);
  }

 private:
  std::size_t cap_;
  Clock::time_point t0_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Log>> logs_;
};

}  // namespace perfbench
