// The benchmark's own spans, recorded around the public calls it makes into
// each layer (spans inside src/ are the library's business, sim/spans.hpp).
//
// A span has a name, a key (op id, run id or wire id), a start and end in
// steady-clock ns, and a parent: an index into the same thread's buffer, or
// -1. Each thread owns one fixed-capacity buffer, so recording never
// allocates after set-up and never synchronizes; spans past the capacity are
// counted as dropped. Buffers are written to a file when the run ends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kSubmit,       // client: op due -> UniversalLog::submit returned   key=op
  kDeliver,      // replica: op submitted -> delivered at this replica key=op
  kStep,         // net::Runtime actor step on a received frame
  kIdleStep,     // actor step on the null message
  kSend,         // Transport::try_send (child of a step when nested)
  kPoll,         // Transport::poll
  kPump,         // Transport::pump
  kPaxosRound,   // UniversalLog round driven -> first op of it delivered
  kSimBuild,     // ProtocolDescriptor::make + submit          key=run id
  kSimRun,       // Protocol::run
  kSimMonitor,   // InvariantMonitors::finalize (online part is in kSimRun)
  kSimSpec,      // amcast::check_all
};

inline const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kSubmit: return "client.submit";
    case SpanName::kDeliver: return "client.deliver";
    case SpanName::kStep: return "net.step";
    case SpanName::kIdleStep: return "net.idle_step";
    case SpanName::kSend: return "net.try_send";
    case SpanName::kPoll: return "net.poll";
    case SpanName::kPump: return "net.pump";
    case SpanName::kPaxosRound: return "objects.paxos_round";
    case SpanName::kSimBuild: return "amcast.build";
    case SpanName::kSimRun: return "sim.run";
    case SpanName::kSimMonitor: return "sim.monitor";
    case SpanName::kSimSpec: return "amcast.spec";
  }
  return "?";
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t key = 0;
  std::int32_t parent = -1;
  SpanName name = SpanName::kStep;

  std::uint64_t duration() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

// Time inside `parent` covered by at least one child interval (clipped to
// the parent; overlapping children count once).
inline std::uint64_t covered_ns(const Span& parent,
                                std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  std::uint64_t covered = 0;
  std::uint64_t cursor = parent.start_ns;
  for (const Span& c : children) {
    const std::uint64_t s = std::max(c.start_ns, cursor);
    const std::uint64_t e = std::min(c.end_ns, parent.end_ns);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

// A layer's self time: its span minus what its children cover.
inline std::uint64_t self_ns(const Span& parent,
                             const std::vector<Span>& children) {
  return parent.duration() - covered_ns(parent, children);
}

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 0) { spans_.reserve(capacity); }

  // Index of the new span, or -1 when the buffer is full.
  std::int32_t open(SpanName name, std::int64_t key, std::uint64_t start_ns,
                    std::int32_t parent = -1) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({start_ns, start_ns, key, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t idx, std::uint64_t end_ns) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
  }
  std::int32_t record(SpanName name, std::int64_t key, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::int32_t parent = -1) {
    const std::int32_t idx = open(name, key, start_ns, parent);
    close(idx, end_ns);
    return idx;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Tab-separated dump, one span per line: thread, index, name, key, start,
// end, parent. Returns false when the file cannot be written.
inline bool write_span_file(const std::string& path,
                            const std::vector<const SpanBuffer*>& threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "# perfbench spans: thread index name key start_ns end_ns parent\n");
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const auto& spans = threads[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%s\t%lld\t%llu\t%llu\t%d\n", t, i,
                   span_name(s.name), static_cast<long long>(s.key),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
