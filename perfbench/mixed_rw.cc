// The `mixed-rw` workload: nproc-1 closed-loop readers calling
// RequestHandler::Handle with the analytic mix while one writer commits
// one-price-triple SPARQL updates at a fixed rate through MvccGraph (WAL
// fsync on every commit).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "common/trace.h"

namespace perfbench {

namespace ep = rdfa::endpoint;

namespace {

struct WriterTally {
  std::vector<double> commit_ms;  ///< from the scheduled time to published
  std::vector<double> lateness_ms;
  uint64_t failed = 0;
};

/// Commits at `rate_per_s` until `stop`; each commit replaces one laptop's
/// price. Latency counts from the commit's scheduled time, so a commit that
/// starts late because the previous one overran is charged the wait.
WriterTally Writer(Store* store, uint64_t seed, size_t laptops,
                   double rate_per_s, const std::atomic<bool>& stop,
                   LayerClock* layers) {
  WriterTally w;
  std::mt19937_64 rng(seed);
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate_per_s));
  auto due = Clock::now();
  while (!stop.load()) {
    due += gap;
    std::this_thread::sleep_until(due);
    if (stop.load()) break;
    auto started = Clock::now();
    w.lateness_ms.push_back(
        std::chrono::duration<double, std::milli>(started - due).count());
    std::string laptop = "ex:laptopg" + std::to_string(rng() % laptops);
    std::string price = std::to_string(300 + rng() % 2700);
    std::string update =
        "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
        "DELETE { " + laptop + " ex:price ?p } INSERT { " + laptop +
        " ex:price " + price + " } WHERE { " + laptop + " ex:price ?p }";
    rdfa::Status st = store->mvcc->BufferUpdate(update);
    auto c0 = Clock::now();
    auto epoch = st.ok() ? store->mvcc->Commit()
                         : rdfa::Result<uint64_t>(st);
    if (layers != nullptr) layers->AddMs("rdf.commit_ms", MsSince(c0));
    if (!epoch.ok()) {
      ++w.failed;
      std::fprintf(stderr, "commit: %s\n", epoch.status().ToString().c_str());
      continue;
    }
    w.commit_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
  }
  return w;
}

size_t FileSize(const std::string& path) {
  std::error_code ec;
  auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(n);
}

/// Writer-side layers of a traced phase: lateness, WAL bytes per commit and
/// the MVCC tracer's commit child spans recorded after `spans0`.
void AddWriterLayers(Store* store, const WriterTally& w, size_t wal0,
                     size_t spans0, LayerClock* layers) {
  for (double ms : w.lateness_ms) layers->AddMs("rdf.writer_lateness_ms", ms);
  if (!w.commit_ms.empty()) {
    layers->AddCount("rdf.wal_bytes_per_commit",
                     static_cast<double>(FileSize(store->wal_path) - wal0) /
                         static_cast<double>(w.commit_ms.size()));
  }
  double commits = 0, append = 0, apply = 0, publish = 0;
  std::vector<rdfa::Tracer::SpanRecord> spans =
      store->commit_tracer->FinishedSpans();
  for (size_t i = spans0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.name == "mvcc-commit") commits += 1;
    if (s.name == "wal-append") append += s.dur_us / 1000;
    if (s.name == "commit-apply") apply += s.dur_us / 1000;
    if (s.name == "commit-publish") publish += s.dur_us / 1000;
  }
  if (commits == 0) return;
  layers->AddCount("rdf.wal_append_ms", append / commits);
  layers->AddCount("rdf.commit_apply_ms", apply / commits);
  layers->AddCount("rdf.commit_publish_ms", publish / commits);
}

struct ReadTally {
  std::vector<double> done_at_ms;  ///< completion times from the phase start
  std::vector<double> read_ms;
  uint64_t reads = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
};

struct Mix {
  std::vector<CatalogEntry> catalog;
  std::vector<std::string> refs;  ///< initial-version bodies (JSON)
  std::vector<size_t> hot;
};

ReadTally Readers(Store* store, const Mix& mix, uint64_t seed, int threads,
                  Clock::time_point t0, const std::atomic<bool>& stop,
                  LayerClock* layers) {
  const Zipf zipf(mix.hot.size(), 1.1);
  std::vector<ReadTally> tallies(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int r = 0; r < threads; ++r) {
    pool.emplace_back([&, r] {
      std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(r));
      ReadTally& t = tallies[static_cast<size_t>(r)];
      for (uint64_t i = 0; !stop.load(); ++i) {
        size_t k = mix.hot[zipf(rng)];
        const CatalogEntry& e = mix.catalog[k];
        if (layers != nullptr && i % 4 == 0) {
          TraceQuery(store, e.query, ep::ResultFormat::kJson, layers);
        }
        double ms = 0;
        ep::EndpointResponse resp =
            TimedHandle(store, e.query, ep::ResultFormat::kJson, layers, &ms);
        ++t.reads;
        t.done_at_ms.push_back(MsSince(t0));
        if (resp.http_status != 200) {
          ++t.failed;
          continue;
        }
        t.read_ms.push_back(ms);
        // Reads that do not touch the written predicate never change.
        if (!e.touches_price && resp.body != mix.refs[k]) {
          ++t.wrong;
          std::fprintf(stderr, "mixed-rw: %s body changed\n", e.label.c_str());
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  ReadTally total;
  for (ReadTally& t : tallies) {
    total.done_at_ms.insert(total.done_at_ms.end(), t.done_at_ms.begin(),
                            t.done_at_ms.end());
    total.read_ms.insert(total.read_ms.end(), t.read_ms.begin(),
                         t.read_ms.end());
    total.reads += t.reads;
    total.failed += t.failed;
    total.wrong += t.wrong;
  }
  return total;
}

/// After the writer stops: price-dependent answers served (possibly from the
/// cache) must equal an uncached evaluation on the final version.
uint64_t RecheckFinal(Store* store, const Mix& mix) {
  uint64_t wrong = 0;
  auto pin = store->mvcc->Snapshot();
  for (const CatalogEntry& e : mix.catalog) {
    if (!e.touches_price) continue;
    ep::EndpointResponse served =
        TimedHandle(store, e.query, ep::ResultFormat::kJson, nullptr, nullptr);
    auto ref = ReferenceBody(pin.graph.get(), e.query, ep::ResultFormat::kJson);
    if (served.http_status != 200 || !ref.ok() || served.body != ref.value()) {
      ++wrong;
      std::fprintf(stderr, "mixed-rw: %s stale after the run\n",
                   e.label.c_str());
    }
  }
  return wrong;
}

struct Phase {
  ReadTally reads;
  WriterTally writes;
  double wall_ms = 0;
};

Phase RunPhase(Store* store, const Mix& mix, uint64_t seed, size_t laptops,
               int readers, double rate, double seconds, LayerClock* layers) {
  Phase p;
  std::atomic<bool> stop{false};
  auto t0 = Clock::now();
  std::thread writer([&] {
    p.writes = Writer(store, seed ^ 0x5EED, laptops, rate, stop, layers);
  });
  std::thread timer([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
  });
  p.reads = Readers(store, mix, seed, readers, t0, stop, layers);
  timer.join();
  writer.join();
  p.wall_ms = MsSince(t0);
  return p;
}

}  // namespace

void ProbeCommits(Store* store, uint64_t seed, LayerClock* layers) {
  std::atomic<bool> stop{false};
  std::thread timer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    stop = true;
  });
  size_t wal0 = FileSize(store->wal_path);
  size_t spans0 = store->commit_tracer->span_count();
  WriterTally w = Writer(store, seed, store->laptops, 4.0, stop, layers);
  timer.join();
  AddWriterLayers(store, w, wal0, spans0, layers);
}

Outcome RunMixedRw(const RunOptions& opt) {
  Outcome out;
  LayerClock layers;
  LayerClock* traced = opt.trace ? &layers : nullptr;
  unsigned hc = std::thread::hardware_concurrency();
  const int readers = std::max(1, static_cast<int>(hc == 0 ? 1 : hc) - 1);
  StoreSpec spec;
  spec.laptops = 5'000 / opt.shrink;
  spec.seed = opt.seed;
  spec.wal_path = opt.work_dir + "/mixed-rw.wal";
  if (opt.trace) spec.commit_tracer = std::make_shared<rdfa::Tracer>();
  // Commits per second: ~35% of one core at 5k laptops. Shrunken self-test
  // stores commit in ~1 ms, so they run faster to reach the same count.
  const double rate = std::min(10.0 * static_cast<double>(opt.shrink), 200.0);
  std::vector<double> setups;
  auto store = BuildStoreMedian(spec, opt.setup_reps, traced, &setups);
  if (store == nullptr) std::exit(1);
  std::printf("mixed-rw: %zu laptops, %zu triples, %d reader threads, "
              "1 writer at %.1f commits/s, WAL fsync per commit\n",
              spec.laptops, store->triples, readers, rate);

  Mix mix;
  mix.catalog = AnalyticCatalog(traced);
  mix.hot = HotOrder(mix.catalog, opt.seed ^ 0xC);
  {
    auto pin = store->mvcc->Snapshot();
    for (const CatalogEntry& e : mix.catalog) {
      auto body = ReferenceBody(pin.graph.get(), e.query,
                                ep::ResultFormat::kJson);
      if (!body.ok()) std::exit(1);
      mix.refs.push_back(std::move(body).value());
    }
  }
  const uint64_t loop_seed = opt.seed * 0x9E3779B97F4A7C15ull + 3;
  // Warm pass: the hot set is cached before timing starts.
  RunPhase(store.get(), mix, loop_seed + 7, spec.laptops, readers, rate,
           std::min(1.0, opt.seconds / 4), nullptr);

  Phase p;
  if (!opt.trace) {
    p = RunPhase(store.get(), mix, loop_seed, spec.laptops, readers, rate,
                 opt.seconds, nullptr);
    out.report.Add("setup_s", store->setup_s, "s");
    out.report.Add("ops_per_s", WindowRate(p.reads.done_at_ms, p.wall_ms),
                   "1/s");
    out.report.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.report.AddPercentile("primary_p50_ms", p.reads.read_ms, 0.50, "ms");
    out.report.AddPercentile("primary_tail_ms", p.reads.read_ms, 0.99, "ms");
    out.report.AddPercentile("secondary_p50_ms", p.writes.commit_ms, 0.50,
                             "ms");
    out.report.AddPercentile("secondary_tail_ms", p.writes.commit_ms, 0.90,
                             "ms");
    out.report.Note("primary = read (one Handle call), tail = p99");
    out.report.Note("secondary = commit from its scheduled time, tail = p90");
  } else {
    Phase plain = RunPhase(store.get(), mix, loop_seed, spec.laptops, readers,
                           rate, opt.seconds / 2, nullptr);
    double plain_rate =
        static_cast<double>(plain.reads.reads) / plain.wall_ms;
    auto a0 = store->endpoint->answer_cache_stats();
    auto q0 = store->endpoint->plan_cache_stats();
    size_t wal0 = FileSize(spec.wal_path);
    size_t spans0 = store->commit_tracer->span_count();
    p = RunPhase(store.get(), mix, loop_seed, spec.laptops, readers, rate,
                 opt.seconds / 2, &layers);
    double rate_traced = static_cast<double>(p.reads.reads) / p.wall_ms;
    layers.AddCount("run.trace_overhead_pct",
                    (plain_rate / rate_traced - 1) * 100);
    double layer_ms = layers.TotalMs(
        {"endpoint.handle_ms", "rdf.snapshot_ms", "sparql.parse_ms",
         "sparql.plan_ms", "sparql.exec_ms", "sparql.serialize_ms"});
    layers.AddCount("run.unaccounted_share",
                    1.0 - layer_ms / (p.wall_ms * readers));
    AddCacheLayers(a0, store->endpoint->answer_cache_stats(), q0,
                   store->endpoint->plan_cache_stats(), 0, &layers);
    AddWriterLayers(store.get(), p.writes, wal0, spans0, &layers);
    p.reads.reads += plain.reads.reads;
    p.reads.failed += plain.reads.failed;
    p.reads.wrong += plain.reads.wrong;
    p.writes.failed += plain.writes.failed;
    FinishTraced(store.get(), mix.catalog, opt.seed, &layers, &out);
  }
  out.wrong += p.reads.wrong + RecheckFinal(store.get(), mix);
  out.attempted = p.reads.reads + p.writes.commit_ms.size() + p.writes.failed;
  out.failed = p.reads.failed + p.writes.failed + out.wrong;
  std::remove(spec.wal_path.c_str());
  return out;
}

}  // namespace perfbench
