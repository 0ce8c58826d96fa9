#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace perfbench {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

void Tracer::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void write_args(std::ofstream& f, const Span& s) {
  f << ",\"args\":{\"req\":" << s.req;
  for (const auto& [k, v] : s.args) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    f << ",\"" << json_escape(k) << "\":" << buf;
  }
  f << "}";
}

}  // namespace

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  f << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
       "{\"name\":\"perfbench\"}}";
  char buf[96];
  for (const Span& s : all) {
    const std::string head = "{\"name\":\"" + json_escape(s.name) +
                             "\",\"cat\":\"" + json_escape(s.cat) +
                             "\",\"pid\":1";
    if (s.async) {
      // Request-scoped spans overlap freely: nestable async begin/end pairs
      // keyed by the request id.
      std::snprintf(buf, sizeof buf, ",\"id\":%llu,\"ts\":%.3f",
                    static_cast<unsigned long long>(s.req), s.begin_us);
      f << ",\n" << head << ",\"ph\":\"b\",\"tid\":0" << buf;
      write_args(f, s);
      f << "}";
      std::snprintf(buf, sizeof buf, ",\"id\":%llu,\"ts\":%.3f",
                    static_cast<unsigned long long>(s.req), s.end_us);
      f << ",\n" << head << ",\"ph\":\"e\",\"tid\":0" << buf << "}";
    } else {
      std::snprintf(buf, sizeof buf, ",\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                    s.tid + 1, s.begin_us, s.end_us - s.begin_us);
      f << ",\n" << head << ",\"ph\":\"X\"" << buf;
      write_args(f, s);
      f << "}";
    }
  }
  f << "\n]}\n";
  f.close();
  return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(Tracer* t, std::string name, std::string cat,
                       std::uint64_t req)
    : t_(t) {
  if (t_ == nullptr) return;
  span_.name = std::move(name);
  span_.cat = std::move(cat);
  span_.req = req;
  span_.tid = thread_index();
  span_.begin_us = t_->now_us();
}

ScopedSpan::~ScopedSpan() {
  if (t_ == nullptr) return;
  span_.end_us = t_->now_us();
  t_->add(std::move(span_));
}

}  // namespace perfbench
