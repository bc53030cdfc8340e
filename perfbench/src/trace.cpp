#include "trace.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_s(), 0.0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  open_.pop_back();
}

void Tracer::add(const char* name, double start, double end) {
  if (!enabled_) return;
  spans_.push_back({name, start, end, open_.empty() ? -1 : open_.back()});
}

std::map<std::string, double> Tracer::self_times(bool keep_sublayers) const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const auto parent = static_cast<std::size_t>(s.parent);
    const std::string& pname = spans_[parent].name;
    if (keep_sublayers && s.name.size() > pname.size() &&
        s.name.compare(0, pname.size(), pname) == 0 &&
        s.name[pname.size()] == '.') {
      continue;
    }
    children[parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to s.
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[s.name] += (s.end - s.start) - covered;
  }
  return self;
}

}  // namespace perfbench
