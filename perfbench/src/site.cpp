// site.cpp — the PowerPlay site under test: PowerPlayApp + HttpServer in
// their own process, configured as examples/powerplay_server runs them
// (default worker, queue, executor and job-runner sizes).
//
// Set-up is the work an operator's restart pays: open the store (with
// recovery of the journal tail), load the model registry, listen, and
// render every stored design once.  The driver times this from spawn to
// the "ready" line.
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "web/app.hpp"
#include "web/server.hpp"

namespace perfbench {

namespace {

/// Handler-side spans, kept in memory and written when the site stops.
class SpanLog {
 public:
  void add(std::uint64_t parent, std::int64_t start, std::int64_t end) {
    std::lock_guard lock(mutex_);
    spans_.push_back({next_id_++, parent, 0, "web.handle", start, end});
  }
  void write(const std::string& path) {
    std::lock_guard lock(mutex_);
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
          << '\t' << s.end_ns << '\n';
    }
  }

 private:
  std::mutex mutex_;
  std::uint64_t next_id_ = 1ull << 62;  // disjoint from client span ids
  std::vector<Span> spans_;
};

}  // namespace

int site_main(int argc, char** argv) {
  using namespace powerplay;
  std::string data_dir;
  std::string spans_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--data") {
      data_dir = argv[i + 1];
    } else if (flag == "--spans") {
      spans_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "site: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (data_dir.empty()) {
    std::fprintf(stderr, "site: --data DIR is required\n");
    return 2;
  }

  const std::int64_t t_start = now_ns();
  library::LibraryStore store(data_dir);
  const std::int64_t t_opened = now_ns();
  web::PowerPlayApp app{std::move(store)};
  SpanLog spans;
  const bool tracing = !spans_path.empty();
  web::HttpServer server(0, [&](const web::Request& r) {
    if (tracing) {
      const auto it = r.headers.find(kSpanHeader);
      if (it != r.headers.end()) {
        const std::int64_t start = now_ns();
        web::Response response = app.handle(r);
        spans.add(std::stoull(it->second), start, now_ns());
        return response;
      }
    }
    return app.handle(r);
  });
  app.set_stats_source([&server] { return server.stats(); });
  server.start();
  const std::int64_t t_listening = now_ns();

  // Warm-up pass: every stored design rendered once, as the first
  // visitors after a restart would.
  for (const std::string& name : app.store().list_designs()) {
    web::Request warm;
    warm.target = "/design?user=warmup&name=" + web::url_encode(name);
    const web::Response r = app.handle(warm);
    if (r.status != 200) {
      std::fprintf(stderr, "site: warm-up of %s answered %d\n", name.c_str(),
                   r.status);
      return 1;
    }
  }

  // The set-up phases (ms): open + recovery, registry + listen, warm-up.
  const std::int64_t t_ready = now_ns();
  std::printf("ready %u %.3f %.3f %.3f\n", server.port(),
              static_cast<double>(t_opened - t_start) * 1e-6,
              static_cast<double>(t_listening - t_opened) * 1e-6,
              static_cast<double>(t_ready - t_listening) * 1e-6);
  std::fflush(stdout);

  // Serve until the driver closes our stdin.
  char buf[256];
  while (std::fread(buf, 1, sizeof buf, stdin) > 0) {
  }
  server.stop();
  if (tracing) spans.write(spans_path);
  app.shutdown();
  return 0;
}

}  // namespace perfbench
