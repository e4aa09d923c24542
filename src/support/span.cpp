#include "support/span.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <ostream>
#include <vector>

#include "support/report_writer.hpp"
#include "support/strings.hpp"

namespace sparcs::trace {
namespace {

std::atomic<bool> g_enabled{false};

struct Event {
  std::string name;
  std::uint64_t ts_us;
  std::uint64_t dur_us;
  int tid;
  std::string args_json;
};

std::mutex g_mu;
std::vector<Event>& events() {
  static std::vector<Event>* v = new std::vector<Event>();
  return *v;
}

/// Small dense thread ids (Chrome's UI groups rows by pid/tid).
int this_thread_id() {
  static std::atomic<int> next{1};
  thread_local int id = next.fetch_add(1);
  return id;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  events().clear();
}

std::size_t num_events() {
  std::lock_guard<std::mutex> lock(g_mu);
  return events().size();
}

void write_chrome_json(std::ostream& os) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (events().empty()) {
    // Literal empty array: downstream JSON linters (and the CI artifact
    // check) expect a parseable document even when tracing recorded nothing.
    os << "[]\n";
    return;
  }
  os << "[";
  bool first = true;
  for (const Event& e : events()) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"" << report::json_escape(e.name)
       << "\",\"cat\":\"sparcs\",\"ph\":\"X\",\"ts\":" << e.ts_us
       << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":" << e.tid;
    if (!e.args_json.empty()) os << ",\"args\":{" << e.args_json << "}";
    os << "}";
  }
  os << "\n]\n";
}

namespace detail {

std::uint64_t now_us() {
  // Anchored to the first call so timestamps stay small and zero-based.
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void record_complete_event(std::string name, std::uint64_t ts_us,
                           std::uint64_t dur_us, std::string args_json) {
  std::lock_guard<std::mutex> lock(g_mu);
  events().push_back(Event{std::move(name), ts_us, dur_us, this_thread_id(),
                           std::move(args_json)});
}

}  // namespace detail

void Span::begin(const char* name) {
  active_ = true;
  name_ = name;
  start_us_ = detail::now_us();
}

void Span::end() {
  const std::uint64_t now = detail::now_us();
  detail::record_complete_event(std::move(name_), start_us_,
                                now >= start_us_ ? now - start_us_ : 0,
                                std::move(args_json_));
  active_ = false;
}

void Span::arg(const char* key, std::int64_t value) {
  if (!active_) return;
  if (!args_json_.empty()) args_json_ += ",";
  args_json_ += str_format("\"%s\":%lld", key,
                           static_cast<long long>(value));
}

void Span::arg(const char* key, double value) {
  if (!active_) return;
  if (!args_json_.empty()) args_json_ += ",";
  if (!std::isfinite(value)) {
    args_json_ += str_format("\"%s\":\"%s\"", key,
                             value > 0 ? "inf" : (value < 0 ? "-inf" : "nan"));
  } else {
    args_json_ += str_format("\"%s\":%.12g", key, value);
  }
}

void Span::arg(const char* key, const std::string& value) {
  if (!active_) return;
  if (!args_json_.empty()) args_json_ += ",";
  args_json_ += str_format("\"%s\":\"%s\"", key,
                           report::json_escape(value).c_str());
}

}  // namespace sparcs::trace
