#include "benchlib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans

std::string Span::layer() const { return name.substr(0, name.find('.')); }

int Tracer::add(const std::string& name, double start, double end, int parent,
                const std::string& group) {
  if (!enabled_) return -1;
  const std::lock_guard lk(m_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, start, end, id, parent, group});
  return id;
}

int Tracer::begin(const std::string& name, int parent,
                  const std::string& group) {
  const double t = now_s();
  return add(name, t, t, parent, group);
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now_s();
  const std::lock_guard lk(m_);
  spans_.at(static_cast<std::size_t>(id)).end = t;
}

void Tracer::merge(const std::vector<Span>& spans, int parent) {
  if (!enabled_) return;
  const std::lock_guard lk(m_);
  std::unordered_map<int, int> renumber;
  const int base = static_cast<int>(spans_.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    renumber[spans[i].id] = base + static_cast<int>(i);
  for (const Span& s : spans) {
    Span c = s;
    c.id = renumber.at(s.id);
    const auto it = renumber.find(s.parent);
    c.parent = it == renumber.end() ? parent : it->second;
    spans_.push_back(std::move(c));
  }
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lk(m_);
  return spans_;
}

double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::erase_if(iv, [](const auto& p) { return p.second <= p.first; });
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = -std::numeric_limits<double>::infinity();
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) total += cur_b - cur_a;
  return total;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<int, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start, s.end);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = std::max(0.0, s.end - s.start);
    out[i] = dur - covered(kids[i], s.start, s.end);
  }
  return out;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].layer()] += self[i];
  return out;
}

double unattributed_frac(const std::vector<Span>& spans, double lo,
                         double hi) {
  if (hi <= lo) return 0.0;
  std::vector<std::pair<double, double>> iv;
  iv.reserve(spans.size());
  for (const Span& s : spans) iv.emplace_back(s.start, s.end);
  return 1.0 - covered(std::move(iv), lo, hi) / (hi - lo);
}

std::string spans_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"name\":" << json_string(s.name)
       << ",\"start\":" << json_number(s.start)
       << ",\"end\":" << json_number(s.end) << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"group\":" << json_string(s.group)
       << '}' << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return os.str();
}

// ----------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::vector<double> quartiles(std::vector<double> v) {
  const auto ld = static_cast<long>(v.size());
  if (ld < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(v.begin(), v.end());
  const long n = 4;
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    out.push_back((v[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(n - delta) +
                   v[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  static_cast<double>(n));
  }
  return out;
}

Percentile percentile_rule(std::vector<double> v, double want,
                           std::size_t beyond) {
  Percentile p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Nearest rank k (1-based) of percentile `want`; k samples lie at or
  // below it, n - k beyond it.
  auto rank_of = [n](double pct) {
    const auto k = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(k, 1, n);
  };
  const std::size_t k_median = rank_of(50.0);
  std::size_t k = rank_of(want);
  if (n >= beyond) k = std::min(k, n - beyond);
  if (n < beyond || k < k_median) {
    p.value = median(std::move(v));
    p.pct = 50.0;
    p.supported = false;
    return p;
  }
  p.value = v[k - 1];
  p.pct = 100.0 * static_cast<double>(k) / static_cast<double>(n);
  p.supported = true;
  return p;
}

// ---------------------------------------------------- closed-loop tally

LoopTally tally(const std::vector<Submission>& subs) {
  constexpr double kMiss = std::numeric_limits<double>::infinity();
  LoopTally t;
  for (const Submission& s : subs) {
    ++t.attempted;
    const bool ok = s.ok && s.ack >= 0 && s.first_result >= 0 && s.done >= 0;
    if (!ok) {
      ++t.failed;
      t.ack_ms.push_back(kMiss);
      t.first_result_ms.push_back(kMiss);
      t.campaign_ms.push_back(kMiss);
      continue;
    }
    t.ack_ms.push_back((s.ack - s.submit) * 1e3);
    t.first_result_ms.push_back((s.first_result - s.submit) * 1e3);
    t.campaign_ms.push_back((s.done - s.submit) * 1e3);
  }
  return t;
}

// ---------------------------------------------------------------- output

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!m_.count(name)) order_.push_back(name);
  m_[name] = {value, unit};
}

bool Metrics::has(const std::string& name) const { return m_.count(name); }

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [v, unit] = m_.at(order_[i]);
    out += json_string(order_[i]) + ": {\"value\": " + json_number(v) +
           ", \"unit\": " + json_string(unit) + "}";
    if (i + 1 < order_.size()) out += ", ";
  }
  return out + "}";
}

std::string Metrics::text() const {
  std::string out;
  for (const std::string& name : order_) {
    const auto& [v, unit] = m_.at(name);
    out += "  " + name + " = " + json_number(v) + " " + unit + "\n";
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "1e308";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
