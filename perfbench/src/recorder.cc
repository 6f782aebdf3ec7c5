#include "recorder.h"

#include <cmath>
#include <unordered_map>

namespace diffode::perfbench {
namespace {

void WriteString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

// JSON has no NaN or infinity; a non-finite measurement is written as null.
void WriteNumber(std::FILE* out, double v) {
  if (std::isfinite(v)) {
    std::fprintf(out, "%.17g", v);
  } else {
    std::fputs("null", out);
  }
}

}  // namespace

Recorder::Recorder(bool trace)
    : trace_(trace), origin_(std::chrono::steady_clock::now()) {}

Recorder::Span::Span(Recorder* rec, const char* name, std::int64_t request)
    : rec_(rec) {
  if (rec_ == nullptr || !rec_->trace_) return;
  index_ = static_cast<std::int64_t>(rec_->spans_.size());
  const std::int64_t parent = rec_->open_.empty() ? -1 : rec_->open_.back();
  rec_->spans_.push_back(SpanRecord{name, request, parent, 0, 0});
  rec_->open_.push_back(index_);
  // Read the clock last so the bookkeeping above is outside the span.
  rec_->spans_.back().start_ns = rec_->NowNs();
}

Recorder::Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = rec_->NowNs();
  rec_->spans_[static_cast<std::size_t>(index_)].end_ns = end;
  rec_->open_.pop_back();
}

void Recorder::WriteJson(std::FILE* out) const {
  std::fputs("{\"meta\": {", out);
  bool first = true;
  for (const auto& [key, value] : meta_) {
    if (!first) std::fputs(", ", out);
    first = false;
    WriteString(out, key);
    std::fputs(": ", out);
    WriteString(out, value);
  }
  std::fprintf(out, "}, \"attempted\": %lld, \"failed\": %lld",
               static_cast<long long>(attempted_),
               static_cast<long long>(failed_));

  std::fputs(", \"values\": {", out);
  first = true;
  for (const auto& [key, value] : values_) {
    if (!first) std::fputs(", ", out);
    first = false;
    WriteString(out, key);
    std::fputs(": ", out);
    WriteNumber(out, value);
  }
  std::fputs("}, \"samples\": {", out);
  first = true;
  for (const auto& [key, list] : samples_) {
    if (!first) std::fputs(", ", out);
    first = false;
    WriteString(out, key);
    std::fputs(": [", out);
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) std::fputs(", ", out);
      WriteNumber(out, list[i]);
    }
    std::fputs("]", out);
  }

  // Spans as a name table plus rows [name, request, parent, start, end].
  std::vector<const char*> names;
  std::unordered_map<const char*, std::size_t> name_index;
  for (const SpanRecord& s : spans_) {
    if (name_index.emplace(s.name, names.size()).second)
      names.push_back(s.name);
  }
  std::fputs("}, \"span_names\": [", out);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) std::fputs(", ", out);
    WriteString(out, names[i]);
  }
  std::fputs("], \"spans\": [", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) std::fputs(", ", out);
    std::fprintf(out, "[%zu, %lld, %lld, %lld, %lld]", name_index.at(s.name),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fputs("]}\n", out);
}

}  // namespace diffode::perfbench
