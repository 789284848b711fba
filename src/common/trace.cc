#include "common/trace.h"

#include <algorithm>
#include <cstddef>

#include "common/strings.h"

namespace stmaker {

namespace {

/// Innermost live span on this thread, for parent inference. Per-thread,
/// so concurrent requests (each with its own Trace) never see each other:
/// ScopedSpan only links to the enclosing span when it belongs to the
/// same Trace.
thread_local ScopedSpan* t_current_span = nullptr;

struct SpanFrame {
  const TraceEvent* event;
  std::vector<const SpanFrame*> children;
};

void AppendSpanJson(const SpanFrame& frame, std::string* out) {
  const TraceEvent& e = *frame.event;
  *out += StrFormat("{\"name\": \"%s\", \"start_ms\": %.3f, \"end_ms\": "
                    "%.3f, \"duration_ms\": %.3f, \"children\": [",
                    e.name.c_str(), e.start_ms, e.end_ms, e.duration_ms());
  for (size_t i = 0; i < frame.children.size(); ++i) {
    if (i > 0) *out += ", ";
    AppendSpanJson(*frame.children[i], out);
  }
  *out += "]}";
}

}  // namespace

Trace::Trace() : epoch_(Clock::now()) {}

void Trace::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Trace::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string Trace::ToJson() const {
  const std::vector<TraceEvent> events = Events();
  // Build the tree: id -> frame, then hang children off parents. Ids are
  // dense-ish but not contiguous (they count up from 1), so index frames
  // by position and map ids.
  std::vector<SpanFrame> frames(events.size());
  for (size_t i = 0; i < events.size(); ++i) frames[i].event = &events[i];
  std::vector<SpanFrame*> roots;
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t parent = events[i].parent;
    SpanFrame* parent_frame = nullptr;
    if (parent != 0) {
      for (size_t j = 0; j < events.size(); ++j) {
        if (events[j].id == parent) {
          parent_frame = &frames[j];
          break;
        }
      }
    }
    if (parent_frame != nullptr) {
      parent_frame->children.push_back(&frames[i]);
    } else {
      roots.push_back(&frames[i]);
    }
  }
  auto by_start = [](const SpanFrame* a, const SpanFrame* b) {
    if (a->event->start_ms != b->event->start_ms) {
      return a->event->start_ms < b->event->start_ms;
    }
    return a->event->id < b->event->id;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (SpanFrame& frame : frames) {
    std::sort(frame.children.begin(), frame.children.end(), by_start);
  }

  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) out += ", ";
    AppendSpanJson(*roots[i], &out);
  }
  out += "]}";
  return out;
}

ScopedSpan::ScopedSpan(Trace* trace, const char* name, Histogram* hist)
    : trace_(trace), name_(name), hist_(hist) {
  if (trace_ == nullptr && hist_ == nullptr) return;  // disabled fast path
  start_ = Trace::Clock::now();
  if (trace_ == nullptr) return;  // histogram-only timing, no span bookkeeping
  id_ = trace_->NextId();
  // Parent = the innermost live span of the same trace on this thread.
  // Spans of a different trace (a nested unrelated request on one thread)
  // are skipped, not adopted — walk outward until this trace reappears.
  for (ScopedSpan* s = t_current_span; s != nullptr; s = s->prev_) {
    if (s->trace_ == trace_) {
      parent_ = s->id_;
      break;
    }
  }
  prev_ = t_current_span;
  t_current_span = this;
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr && hist_ == nullptr) return;
  const Trace::Clock::time_point end = Trace::Clock::now();
  if (hist_ != nullptr) {
    hist_->Observe(
        std::chrono::duration<double, std::milli>(end - start_).count());
  }
  if (trace_ == nullptr) return;
  t_current_span = prev_;
  TraceEvent event;
  event.id = id_;
  event.parent = parent_;
  event.name = name_;
  event.start_ms = trace_->SinceEpochMs(start_);
  event.end_ms = trace_->SinceEpochMs(end);
  trace_->Record(std::move(event));
}

}  // namespace stmaker
