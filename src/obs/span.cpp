#include "obs/span.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace lsl::obs {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSession:
      return "session";
    case SpanKind::kTransfer:
      return "transfer";
    case SpanKind::kAttempt:
      return "attempt";
    case SpanKind::kConnect:
      return "connect";
    case SpanKind::kStream:
      return "stream";
    case SpanKind::kStall:
      return "stall";
    case SpanKind::kBackoff:
      return "backoff";
    case SpanKind::kProbe:
      return "probe";
    case SpanKind::kHandover:
      return "handover";
    case SpanKind::kResume:
      return "resume";
    case SpanKind::kRtoWait:
      return "rto_wait";
    case SpanKind::kRouteDecision:
      return "route_decision";
    case SpanKind::kFaultWindow:
      return "fault_window";
    case SpanKind::kForecastEpoch:
      return "forecast_epoch";
  }
  return "?";
}

char to_char(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kBegin:
      return 'B';
    case SpanPhase::kEnd:
      return 'E';
    case SpanPhase::kInstant:
      return 'i';
    case SpanPhase::kComplete:
      return 'X';
  }
  return '?';
}

SpanRecorder::SpanRecorder(std::size_t per_session_capacity)
    : capacity_(per_session_capacity) {}

std::uint64_t SpanRecorder::record(SpanEvent event) {
  if (event.span_id == 0 && event.phase != SpanPhase::kEnd) {
    event.span_id = next_id_++;
  }
  if (event.kind == SpanKind::kSession) {
    if (event.phase == SpanPhase::kBegin) {
      open_sessions_[event.session] = event.span_id;
    } else if (event.phase == SpanPhase::kEnd) {
      open_sessions_.erase(event.session);
    }
  }
  push(event);
  return event.span_id;
}

void SpanRecorder::push(const SpanEvent& event) {
  const auto [it, created] = rings_.try_emplace(event.session);
  if (created) {
    session_order_.push_back(event.session);
  }
  std::deque<Slot>& ring = it->second;
  if (capacity_ != 0 && ring.size() >= capacity_) {
    ring.pop_front();
    ++dropped_;
  }
  ring.push_back({event, next_seq_++});
}

std::uint64_t SpanRecorder::session_root(std::uint64_t session) const {
  const auto it = open_sessions_.find(session);
  return it == open_sessions_.end() ? 0 : it->second;
}

std::size_t SpanRecorder::size() const {
  std::size_t total = 0;
  for (const auto& [session, ring] : rings_) {
    total += ring.size();
  }
  return total;
}

template <typename Keep>
std::vector<SpanEvent> SpanRecorder::gather(Keep keep) const {
  std::vector<Slot> slots;
  for (const auto& [session, ring] : rings_) {
    if (keep(session)) {
      slots.insert(slots.end(), ring.begin(), ring.end());
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.seq < b.seq; });
  std::vector<SpanEvent> events;
  events.reserve(slots.size());
  for (const Slot& slot : slots) {
    events.push_back(slot.event);
  }
  return events;
}

std::vector<SpanEvent> SpanRecorder::snapshot() const {
  return gather([](std::uint64_t) { return true; });
}

std::vector<SpanEvent> SpanRecorder::session_events(
    std::uint64_t session) const {
  return gather(
      [session](std::uint64_t key) { return key == session || key == 0; });
}

std::vector<std::uint64_t> SpanRecorder::sessions() const {
  std::vector<std::uint64_t> out;
  for (const std::uint64_t session : session_order_) {
    if (session != 0) {
      out.push_back(session);
    }
  }
  return out;
}

void SpanRecorder::clear() {
  rings_.clear();
  open_sessions_.clear();
  session_order_.clear();
  next_id_ = 1;
  next_seq_ = 0;
  dropped_ = 0;
}

std::string SpanRecorder::post_mortem(std::uint64_t session) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "post-mortem for session %016" PRIx64 " (%zu events%s)\n",
                session, session_events(session).size(),
                bounded() ? ", flight ring" : "");
  out += buf;
  for (const SpanEvent& e : session_events(session)) {
    std::string line;
    std::snprintf(buf, sizeof buf, "  [%12.6fs] %c %-14s #%" PRIu64,
                  e.ts.to_seconds(), to_char(e.phase), to_string(e.kind),
                  e.span_id);
    line += buf;
    if (e.parent != 0) {
      std::snprintf(buf, sizeof buf, " parent=#%" PRIu64, e.parent);
      line += buf;
    }
    if (e.follows != 0) {
      std::snprintf(buf, sizeof buf, " follows=#%" PRIu64, e.follows);
      line += buf;
    }
    if (e.phase == SpanPhase::kComplete) {
      std::snprintf(buf, sizeof buf, " dur=%.6fs", e.dur.to_seconds());
      line += buf;
    }
    if (e.reason != nullptr && e.reason[0] != '\0') {
      line += " ";
      line += e.reason;
    }
    if (e.value != 0.0) {
      std::snprintf(buf, sizeof buf, " value=%.6g", e.value);
      line += buf;
    }
    out += line;
    out += "\n";
  }
  return out;
}

std::string post_mortem_all(const SpanRecorder& recorder, bool only_troubled) {
  std::string out;
  for (const std::uint64_t session : recorder.sessions()) {
    if (only_troubled) {
      bool troubled = false;
      bool closed = false;
      for (const SpanEvent& ev : recorder.session_events(session)) {
        if (ev.kind != SpanKind::kSession && ev.kind != SpanKind::kTransfer) {
          continue;
        }
        if (ev.phase == SpanPhase::kEnd) {
          closed = true;
          if (std::strcmp(ev.reason, "failed") == 0) {
            troubled = true;
          }
        }
      }
      if (!troubled && closed) {
        continue;
      }
    }
    out += recorder.post_mortem(session);
  }
  return out;
}

std::string SpanRecorder::to_json() const {
  std::string out = "[";
  bool first = true;
  char buf[384];
  // Span id -> the root of its tree, which names the track. Parents are
  // recorded before their children; a parent evicted from a flight ring
  // roots its orphans' track itself.
  std::unordered_map<std::uint64_t, std::uint64_t> root_of;
  const auto root = [&root_of](std::uint64_t id) {
    const auto it = root_of.find(id);
    return it == root_of.end() ? id : it->second;
  };
  for (const SpanEvent& e : snapshot()) {
    std::uint64_t tid = 0;
    if (e.phase == SpanPhase::kEnd) {
      tid = root(e.span_id);
    } else if (e.parent != 0) {
      tid = root_of[e.span_id] = root(e.parent);
    } else if (e.phase != SpanPhase::kInstant) {
      tid = root_of[e.span_id] = e.span_id;
    }
    if (!first) {
      out += ",";
    }
    first = false;
    std::snprintf(
        buf, sizeof buf,
        "\n  {\"name\": \"%s\", \"cat\": \"span\", \"ph\": \"%c\", "
        "\"ts\": %.3f, ",
        to_string(e.kind), to_char(e.phase), e.ts.to_seconds() * 1e6);
    out += buf;
    if (e.phase == SpanPhase::kComplete) {
      std::snprintf(buf, sizeof buf, "\"dur\": %.3f, ",
                    e.dur.to_seconds() * 1e6);
      out += buf;
    }
    std::snprintf(
        buf, sizeof buf,
        "\"pid\": 1, \"tid\": %" PRIu64 ", \"args\": {\"id\": %" PRIu64
        ", \"parent\": %" PRIu64 ", \"follows\": %" PRIu64
        ", \"session\": \"%016" PRIx64 "\", \"reason\": \"%s\", "
        "\"value\": %.6g}}",
        tid, e.span_id, e.parent, e.follows, e.session,
        e.reason != nullptr ? e.reason : "", e.value);
    out += buf;
  }
  out += first ? "]\n" : "\n]\n";
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << to_json();
  return static_cast<bool>(out);
}

void SpanRecorder::append_from(const SpanRecorder& other) {
  // Rebase the other stream's ids past everything we have assigned; id k
  // becomes offset + k, so parent/follows links stay internally consistent.
  const std::uint64_t offset = next_id_ - 1;
  const auto rebase = [offset](std::uint64_t id) {
    return id == 0 ? 0 : id + offset;
  };
  for (SpanEvent event : other.snapshot()) {
    event.span_id = rebase(event.span_id);
    event.parent = rebase(event.parent);
    event.follows = rebase(event.follows);
    push(event);
  }
  next_id_ += other.next_id_ - 1;
  dropped_ += other.dropped_;
}

namespace {
SpanRecorder* g_spans = nullptr;
thread_local SpanRecorder* t_spans = nullptr;
thread_local bool t_spans_overridden = false;
}  // namespace

SpanRecorder* spans() {
  if (t_spans_overridden) {
    return t_spans;
  }
  return g_spans;
}

void set_spans(SpanRecorder* recorder) { g_spans = recorder; }

ScopedSpanRecorder::ScopedSpanRecorder(SpanRecorder* recorder)
    : previous_(t_spans), had_previous_(t_spans_overridden) {
  t_spans = recorder;
  t_spans_overridden = true;
}

ScopedSpanRecorder::~ScopedSpanRecorder() {
  t_spans = previous_;
  t_spans_overridden = had_previous_;
}

}  // namespace lsl::obs
