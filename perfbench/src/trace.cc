#include "trace.h"

#include <cstdio>

#include "bench.h"

namespace perfbench {

std::size_t SpanBuffer::Begin(const char* name, std::uint64_t op_id) {
  Span span;
  span.name = name;
  span.thread = thread_;
  span.parent = open_.empty() ? 0 : static_cast<std::uint32_t>(open_.back() + 1);
  span.op_id = op_id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanBuffer::End(std::size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

Tracer::Tracer(std::size_t threads) {
  for (std::size_t t = 0; t < threads; ++t) {
    buffers_.push_back(
        std::make_unique<SpanBuffer>(static_cast<std::uint32_t>(t)));
  }
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::map<std::string, NameTotals> totals;
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      NameTotals& t = totals[spans[i].name];
      const std::int64_t d = spans[i].end_ns - spans[i].start_ns;
      ++t.count;
      t.total_ns += d;
      t.self_ns += d - child_ns[i];
    }
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Span ids are (thread, index + 1); parents live on the same thread.
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":\"%u.%zu\",\"parent\":\"%s\","
                   "\"op\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, s.thread, i + 1,
                   s.parent == 0
                       ? ""
                       : (std::to_string(s.thread) + "." +
                          std::to_string(s.parent))
                             .c_str(),
                   static_cast<unsigned long long>(s.op_id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
