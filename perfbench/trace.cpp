#include "trace.hpp"

#include <cstdio>
#include <map>

#include "alloc_count.hpp"

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  records_.reserve(1 << 16);
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::begin(const char* name) {
  SpanRecord r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.request = request_;
  const int index = static_cast<int>(records_.size());
  records_.push_back(r);
  stack_.push_back(index);
  records_[static_cast<std::size_t>(index)].start = now();
  return index;
}

void Tracer::end(int index) {
  records_[static_cast<std::size_t>(index)].end = now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const SpanRecord& r : records_) {
    if (name == r.name) sum += r.end - r.start;
  }
  return sum;
}

double Tracer::self_total(const std::string& name) const {
  // Children of one span run sequentially on the same thread, so the time
  // they cover is the sum of their durations.
  std::map<int, double> child_time;
  for (const SpanRecord& r : records_) {
    if (r.parent >= 0) child_time[r.parent] += r.end - r.start;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    if (name != r.name) continue;
    const auto it = child_time.find(static_cast<int>(i));
    sum += (r.end - r.start) - (it == child_time.end() ? 0.0 : it->second);
  }
  return sum;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& r : records_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"request\":%lld}\n",
                 r.name, r.start, r.end, r.parent,
                 static_cast<long long>(r.request));
  }
  return std::fclose(f) == 0;
}

TracedNsSolver::TracedNsSolver(std::unique_ptr<turb::ns::NsSolver> inner)
    : NsSolver(inner->config()), inner_(std::move(inner)) {}

void TracedNsSolver::set_vorticity(const turb::TensorD& omega) {
  ScopedSpan span("ns/set_vorticity");
  inner_->set_vorticity(omega);
}

void TracedNsSolver::step(turb::index_t steps) {
  ScopedSpan span("ns/step");
  const std::int64_t before = alloc_count();
  inner_->step(steps);
  step_allocs_ += alloc_count() - before;
  steps_ += steps;
}

turb::TensorD TracedNsSolver::vorticity() const {
  ScopedSpan span("ns/vorticity");
  return inner_->vorticity();
}

}  // namespace perfbench
