// Benchmark-side tracing: spans recorded around every public cluster call
// and every probe, kept in memory per thread and written out at the end.
// A span records its name, start, end and parent; all spans of one client
// operation share the operation's id. Tracing inside the program under
// test is not part of this benchmark.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint32_t thread = 0;
  std::uint32_t parent = 0;  // index + 1 in the same thread's buffer; 0: root
  std::uint64_t op_id = 0;   // shared by every span of one client op
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans. Spans nest on their thread, so the parent of a new
/// span is the innermost span still open. Not thread-safe: each thread
/// owns one buffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint32_t thread) : thread_(thread) {}
  std::size_t Begin(const char* name, std::uint64_t op_id);
  void End(std::size_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null buffer (tracing off) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, std::uint64_t op_id = 0)
      : buffer_(buffer),
        index_(buffer == nullptr ? 0 : buffer->Begin(name, op_id)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* const buffer_;
  const std::size_t index_;
};

/// Owns one span buffer per benchmark thread.
class Tracer {
 public:
  explicit Tracer(std::size_t threads);
  SpanBuffer* buffer(std::size_t thread) { return buffers_[thread].get(); }

  struct NameTotals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  // total minus the time child spans cover
  };
  /// Per span name: count, total and self time.
  std::map<std::string, NameTotals> Totals() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
