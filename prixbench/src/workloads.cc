#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "adapter.h"
#include "stats.h"

namespace prixbench {

namespace {

// ------------------------------------------------------------- input sizes
//
// Sized so that one run (set-up + measurement + checks) stays well under a
// minute on a 4-vCPU host while every layer still does real work; see
// README.md for the make-up of each input.

// paper-cold: the three Table-3 datasets. TREEBANK is the smallest the
// generator accepts with its planted answers and decoys (426 sentences):
// ViST answers Q9 in seconds per pass at this size.
constexpr size_t kPaperDblpDocs = 4000;
constexpr size_t kPaperSwissprotDocs = 1200;
constexpr size_t kPaperTreebankDocs = 450;

// serve-warm: the DBLP analog at the paper's scale factor 1.
constexpr size_t kServeDocs = 20000;
// Clients plus query workers = the host's 4 vCPUs.
constexpr size_t kServeConnections = 2;
constexpr size_t kServeQueryThreads = 2;
constexpr size_t kServeCheckQueries = 200;  // two-path agreement segment

// ingest-mixed: bulk-built base collection, pool of fresh documents, and one
// round of writes; each round starts again from the bulk-built files.
constexpr size_t kIngestBaseDocs = 2000;
constexpr size_t kIngestPoolDocs = 1000;
constexpr size_t kIngestWritesPerRound = 200;
constexpr size_t kIngestWritesPerRead = 10;  // a read batch after every k writes
constexpr size_t kIngestReadBatch = 4;
// The database file may not grow past this; a run that would stops with a
// failure rather than fill the disk.
constexpr uint64_t kIngestFileCapBytes = 256ull << 20;

// A tail percentile is reported only with at least ten samples beyond it,
// so every timed loop collects at least this many operations.
constexpr size_t kMinOps = 1000;
// No timed loop runs longer than this multiple of --seconds.
constexpr double kHardCapFactor = 4;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SecondsSince(int64_t t0) { return (NowNs() - t0) / 1e9; }

void Add(RunResult* r, const std::string& name, double value,
         const std::string& unit) {
  r->metrics.push_back(Metric{name, value, unit});
}

/// End-to-end metrics every workload reports, on the workload's primary
/// operation: a cold pass of the nine Table-3 queries through PRIX, a
/// served request, or a logical write. There is no median: this host's speed
/// switches between two levels, and the median of such a mix jumps from one
/// level to the other between runs, while a mean (ops_per_s) moves smoothly
/// and the tail stays in the slow level.
void AddEndToEnd(RunResult* r, double setup_s,
                 const std::vector<double>& op_ms, double ops_per_s,
                 uint64_t db_bytes) {
  Add(r, "setup_s", setup_s, "s");
  Add(r, "op_p99_ms", Quantile(op_ms, 0.99), "ms");
  Add(r, "ops_per_s", ops_per_s, "1/s");
  Add(r, "db_bytes", static_cast<double>(db_bytes), "bytes");
}

/// Fills every per-layer metric, taking values from `values` and 0 for the
/// layers this workload does not exercise.
void AddPerLayer(RunResult* r, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    Add(r, name, it == values.end() ? 0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& m : PerLayerMetrics()) known |= m.first == name;
    if (!known) throw std::logic_error("undeclared per-layer metric " + name);
  }
}

double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  double u = Median(untraced);
  return u > 0 ? (Median(traced) / u - 1) * 100 : 0;
}

bool Quotable(const std::string& s) {
  return !s.empty() && s.find('"') == std::string::npos;
}

/// Seeded generator of PRIX value and structure queries over documents of
/// the DBLP analog. Value queries are built from a sampled document's own
/// fields, so most are distinct and most have answers; structure queries
/// come from a small fixed set.
class QueryGen {
 public:
  QueryGen(const Collection* coll, uint64_t seed) : coll_(coll), rng_(seed) {}

  /// A value query over document `index` (falls back to a structure query
  /// when the document has no quotable fields).
  std::string ValueQuery(uint32_t index) {
    const std::string root = coll_->RootTag(index);
    std::map<std::string, std::string> f;  // first value of each field
    for (auto& [tag, value] : coll_->Fields(index)) f.emplace(tag, value);
    const uint64_t pick = rng_() % 3;
    if (pick == 0 && Quotable(f["title"])) {
      return "//title[text()=\"" + f["title"] + "\"]";
    }
    if (root == "inproceedings" && Quotable(f["author"]) &&
        Quotable(f["year"])) {
      return pick == 1 || !Quotable(f["booktitle"])
                 ? "//inproceedings[./author=\"" + f["author"] +
                       "\"][./year=\"" + f["year"] + "\"]"
                 : "//inproceedings[./booktitle=\"" + f["booktitle"] +
                       "\"][./year=\"" + f["year"] + "\"]/title";
    }
    if (root == "article" && Quotable(f["author"])) {
      return pick == 1 || !Quotable(f["journal"]) || !Quotable(f["year"])
                 ? "//article[./author=\"" + f["author"] + "\"]/title"
                 : "//article[./journal=\"" + f["journal"] +
                       "\"][./year=\"" + f["year"] + "\"]";
    }
    if (root == "www" && Quotable(f["url"])) {
      return "//www[./url=\"" + f["url"] + "\"]/title";
    }
    return StructureQuery();
  }

  std::string StructureQuery() {
    static const char* const kStructure[] = {
        "//www[./editor]/url",
        "//inproceedings[./author]/pages",
        "//article[./journal]/volume",
        "//www[./url]/title",
    };
    return kStructure[rng_() % 4];
  }

  /// Four in five queries are value queries over a uniformly drawn
  /// document of `ids` (mapped to collection positions by `index_of`).
  template <typename IndexOf>
  std::string Next(const std::vector<uint32_t>& ids, IndexOf index_of) {
    if (rng_() % 5 == 0) return StructureQuery();
    return ValueQuery(index_of(ids[rng_() % ids.size()]));
  }

 private:
  const Collection* coll_;
  std::mt19937_64 rng_;
};

}  // namespace

// ------------------------------------------------------------------ Checks

void Checks::Record(const std::string& name, bool ok,
                    const std::string& what) {
  Tally& t = results_[name];
  if (ok) {
    ++t.passed;
  } else {
    if (t.failed < 5) {
      std::fprintf(stderr, "CHECK FAIL %s: %s\n", name.c_str(), what.c_str());
    }
    ++t.failed;
  }
}

bool Checks::ok() const {
  for (const auto& [name, t] : results_) {
    if (t.failed > 0 || t.passed == 0) return false;
  }
  return true;
}

void Checks::Report() const {
  for (const auto& [name, t] : results_) {
    std::fprintf(stderr, "check %s: %llu passed, %llu failed\n", name.c_str(),
                 (unsigned long long)t.passed, (unsigned long long)t.failed);
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // paper-cold, per engine: sum over the nine queries of the median
      // cold latency, and physical page reads of one cold pass.
      {"prix_cold_ms", "ms"},
      {"vist_cold_ms", "ms"},
      {"twigstack_cold_ms", "ms"},
      {"twigstackxb_cold_ms", "ms"},
      {"prix_pages_read", "pages"},
      {"vist_pages_read", "pages"},
      {"twigstack_pages_read", "pages"},
      {"twigstackxb_pages_read", "pages"},
      {"query.parse_us", "us"},
      {"prix.execute_us", "us"},
      {"prix.match_us", "us"},
      {"prix.refine_us", "us"},
      {"prix.verify_us", "us"},
      {"prix.candidates", "count"},
      {"prix.docs_loaded", "count"},
      {"vist.execute_us", "us"},
      {"vist.keys_matched", "count"},
      {"twigstack.execute_us", "us"},
      {"twigstackxb.execute_us", "us"},
      {"twigstack.elements", "count"},
      {"btree.nodes.prix", "count"},
      {"btree.nodes.vist", "count"},
      {"btree.nodes.twigstack", "count"},
      {"btree.nodes.twigstackxb", "count"},
      {"btree.nodes.write", "count"},
      // Storage work per operation of the workload.
      {"storage.pool_hits", "count"},
      {"storage.pool_misses", "count"},
      {"storage.pages_read", "pages"},
      {"storage.pages_written", "pages"},
      // Snapshot reads (serve-warm, ingest-mixed).
      {"db.snapshot_open_us", "us"},
      {"read_p50_ms", "ms"},
      {"serve.request_us", "us"},
      {"serve.batch_us", "us"},
      {"serve.cache_hits", "count"},
      // Writes (ingest-mixed).
      {"db.insert_us", "us"},
      {"db.update_us", "us"},
      {"db.delete_us", "us"},
      {"db.commit_pages", "pages"},
      {"db.oplog_bytes", "bytes"},
      {"db.free_pages", "pages"},
      {"write_bytes_per_op", "bytes"},
      // Index builds (set-up).
      {"build.prix_s", "s"},
      {"build.vist_s", "s"},
      {"build.twigstack_s", "s"},
      {"build.pages.prix", "pages"},
      {"build.pages.vist", "pages"},
      {"build.pages.twigstack", "pages"},
      // Cost of the traced run's own spans.
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

// -------------------------------------------------------------- paper-cold

namespace {

struct PaperQuery {
  const char* id;
  const char* xpath;
  int dataset;  // index into the three collections
  size_t paper_matches;
};

// Table 3 of the paper: the nine queries and their match counts.
constexpr PaperQuery kPaperQueries[] = {
    {"Q1", R"(//inproceedings[./author="Jim Gray"][./year="1990"])", 0, 6},
    {"Q2", "//www[./editor]/url", 0, 21},
    {"Q3", R"(//title[text()="Semantic Analysis Patterns"])", 0, 1},
    {"Q4", R"(//Entry[./Keyword="Rhizomelic"])", 1, 3},
    {"Q5", R"(//Entry/Ref[./Author="Mueller P"][./Author="Keller M"])", 1, 5},
    {"Q6", R"(//Entry[./Org="Piroplasmida"][.//Author]//from)", 1, 158},
    {"Q7", "//S//NP/SYM", 2, 9},
    {"Q8", "//NP[./RBR_OR_JJR]/PP", 2, 1},
    {"Q9", "//NP/PP/NP[./NNS_OR_NN][./NN]", 2, 6},
};
constexpr size_t kNumPaper = std::size(kPaperQueries);

}  // namespace

RunResult RunPaperCold(const RunConfig& config, Tracer* tracer,
                       Checks* checks) {
  RunResult result;
  Tracer* build_tracer = config.trace ? tracer : nullptr;
  std::vector<std::unique_ptr<Collection>> colls;
  colls.push_back(std::make_unique<Collection>(
      Dataset::kDblp, kPaperDblpDocs, Mix(config.seed, 1)));
  colls.push_back(std::make_unique<Collection>(
      Dataset::kSwissprot, kPaperSwissprotDocs, Mix(config.seed, 2)));
  colls.push_back(std::make_unique<Collection>(
      Dataset::kTreebank, kPaperTreebankDocs, Mix(config.seed, 3)));
  std::vector<std::unique_ptr<EngineDb>> dbs;
  const char* names[] = {"dblp", "swissprot", "treebank"};
  for (size_t d = 0; d < 3; ++d) {
    dbs.push_back(std::make_unique<EngineDb>(
        colls[d].get(), config.workdir + "/" + names[d] + ".prix",
        build_tracer));
  }
  const double setup_s = SecondsSince(config.start_ns);
  uint64_t db_bytes = 0;
  BuildCost build;
  for (auto& db : dbs) {
    db_bytes += db->FileBytes();
    build.prix_s += db->build().prix_s;
    build.vist_s += db->build().vist_s;
    build.twigstack_s += db->build().twigstack_s;
    build.prix_pages += db->build().prix_pages;
    build.vist_pages += db->build().vist_pages;
    build.twigstack_pages += db->build().twigstack_pages;
  }
  for (size_t d = 0; d < 3; ++d) {
    std::fprintf(stderr, "[paper-cold] %s: %zu docs, %zu nodes, %llu bytes\n",
                 names[d], colls[d]->size(), colls[d]->total_nodes(),
                 (unsigned long long)dbs[d]->FileBytes());
  }

  // Expected answers: the naive matcher over each whole dataset, under
  // both semantics; their match counts must be the paper's.
  std::vector<std::unique_ptr<Oracle>> oracles;
  for (auto& c : colls) {
    oracles.push_back(std::make_unique<Oracle>(c.get()));
    for (uint32_t i = 0; i < c->size(); ++i) oracles.back()->Put(i, i);
  }
  Answer expected[kNumPaper][2];
  for (size_t q = 0; q < kNumPaper; ++q) {
    const PaperQuery& pq = kPaperQueries[q];
    for (Semantics s : {Semantics::kOrdered, Semantics::kStandard}) {
      Answer& a = expected[q][static_cast<int>(s)];
      if (!oracles[pq.dataset]->Match(pq.xpath, s, &a)) {
        throw std::runtime_error(std::string("oracle cannot parse ") + pq.id);
      }
    }
    checks->Expect("paper_counts", expected[q][0].matches.size(),
                   pq.paper_matches, std::string(pq.id) + " oracle count");
  }
  checks->Declare("engine_answers");
  checks->Declare("pages_exact");

  // Each engine gets a share of the run, and at least one round. The
  // end-to-end operation is one cold pass of the nine queries through PRIX
  // (summing nine queries of different cost keeps the statistic from jumping
  // between queries as the seed changes), and PRIX gets enough passes for a
  // p99.
  struct Phase {
    Engine engine;
    double share;
    size_t min_rounds;
  };
  const Phase phases[] = {
      {Engine::kPrix, 0.8, kMinOps},
      {Engine::kTwigStack, 0.05, 1},
      {Engine::kTwigStackXb, 0.05, 1},
      {Engine::kVist, 0.1, 1},
  };
  std::map<std::string, double> layer;
  std::vector<double> prix_pass_ms, prix_traced_pass_ms;
  uint64_t request = 0;
  IoCounts pass_io;  // one cold pass over all engines and queries
  for (const Phase& phase : phases) {
    const Engine e = phase.engine;
    const std::string en = EngineName(e);
    const int sem = static_cast<int>(SemanticsOf(e));
    std::vector<std::vector<double>> ms(kNumPaper);
    std::vector<std::vector<double>> match_us(kNumPaper), refine_us(kNumPaper),
        verify_us(kNumPaper);
    std::vector<ColdRun> first(kNumPaper);
    // The traced run traces every other round, so it needs two at least.
    const size_t min_rounds = std::max<size_t>(phase.min_rounds,
                                               config.trace ? 2 : 1);
    const int64_t t0 = NowNs();
    for (size_t round = 0;; ++round) {
      const double elapsed = SecondsSince(t0);
      if (round >= min_rounds &&
          elapsed >= phase.share * config.seconds) {
        break;
      }
      if (round > 0 && elapsed >= kHardCapFactor * config.seconds) break;
      const bool traced = config.trace && round % 2 == 1;
      double pass_ms = 0;
      for (size_t q = 0; q < kNumPaper; ++q) {
        const PaperQuery& pq = kPaperQueries[q];
        ++result.attempted;
        ColdRun r = dbs[pq.dataset]->RunCold(e, pq.xpath,
                                             traced ? tracer : nullptr,
                                             ++request, q);
        if (!r.ok) {
          ++result.failed;
          std::fprintf(stderr, "%s %s failed: %s\n", en.c_str(), pq.id,
                       r.error.c_str());
          continue;
        }
        checks->Expect("engine_answers", r.answer, expected[q][sem],
                       en + " " + pq.id);
        if (round == 0) {
          checks->Expect("paper_counts", r.answer.matches.size(),
                         pq.paper_matches, en + " " + pq.id + " count");
          first[q] = r;
          pass_io.pool_hits += r.io.pool_hits;
          pass_io.pool_misses += r.io.pool_misses;
          pass_io.pages_read += r.io.pages_read;
          pass_io.pages_written += r.io.pages_written;
        } else {
          checks->Expect("pages_exact", r.io.pages_read,
                         first[q].io.pages_read,
                         en + " " + pq.id + " pages, round " +
                             std::to_string(round));
        }
        pass_ms += r.ms;
        if (traced) continue;
        ms[q].push_back(r.ms);
        if (e == Engine::kPrix) {
          match_us[q].push_back(r.match_us);
          refine_us[q].push_back(r.refine_us);
          verify_us[q].push_back(r.verify_us);
        }
      }
      if (e == Engine::kPrix) {
        (traced ? prix_traced_pass_ms : prix_pass_ms).push_back(pass_ms);
      }
    }
    double cold_ms = 0, pages = 0, nodes = 0;
    for (size_t q = 0; q < kNumPaper; ++q) {
      cold_ms += Median(ms[q]);
      pages += first[q].io.pages_read;
      nodes += first[q].io.btree_nodes;
    }
    layer[en + "_cold_ms"] = cold_ms;
    layer[en + "_pages_read"] = pages;
    layer["btree.nodes." + en] = nodes;
    std::fprintf(stderr, "[paper-cold] %s: %.3f ms cold, %.0f pages\n",
                 en.c_str(), cold_ms, pages);
    if (e == Engine::kPrix) {
      std::fprintf(stderr, "[paper-cold] prix: %zu cold passes, median %.4f "
                   "ms\n", prix_pass_ms.size(), Median(prix_pass_ms));
    }
    if (e == Engine::kPrix) {
      double m = 0, rf = 0, v = 0, cand = 0, loaded = 0;
      for (size_t q = 0; q < kNumPaper; ++q) {
        m += Median(match_us[q]);
        rf += Median(refine_us[q]);
        v += Median(verify_us[q]);
        cand += first[q].candidates;
        loaded += first[q].docs_loaded;
      }
      layer["prix.match_us"] = m;
      layer["prix.refine_us"] = rf;
      layer["prix.verify_us"] = v;
      layer["prix.candidates"] = cand;
      layer["prix.docs_loaded"] = loaded;
    } else if (e == Engine::kVist) {
      double keys = 0;
      for (const ColdRun& r : first) keys += r.keys_matched;
      layer["vist.keys_matched"] = keys;
    } else if (e == Engine::kTwigStack) {
      double elements = 0;
      for (const ColdRun& r : first) elements += r.elements;
      layer["twigstack.elements"] = elements;
    }
  }

  if (!config.trace) {
    double total_s = 0;
    for (double m : prix_pass_ms) total_s += m / 1e3;
    AddEndToEnd(&result, setup_s, prix_pass_ms,
                total_s > 0 ? prix_pass_ms.size() / total_s : 0, db_bytes);
    return result;
  }
  const double ops = 4.0 * kNumPaper;  // storage counts are per cold query
  layer["storage.pool_hits"] = pass_io.pool_hits / ops;
  layer["storage.pool_misses"] = pass_io.pool_misses / ops;
  layer["storage.pages_read"] = pass_io.pages_read / ops;
  layer["storage.pages_written"] = pass_io.pages_written / ops;
  layer["query.parse_us"] = tracer->SumOfKeyMediansUs("query.parse");
  for (Engine e : kAllEngines) {
    const std::string en = EngineName(e);
    layer[en + ".execute_us"] = tracer->SumOfKeyMediansUs(en + ".execute");
  }
  layer["build.prix_s"] = build.prix_s;
  layer["build.vist_s"] = build.vist_s;
  layer["build.twigstack_s"] = build.twigstack_s;
  layer["build.pages.prix"] = build.prix_pages;
  layer["build.pages.vist"] = build.vist_pages;
  layer["build.pages.twigstack"] = build.twigstack_pages;
  layer["trace.overhead_pct"] = OverheadPct(prix_traced_pass_ms, prix_pass_ms);
  AddPerLayer(&result, layer);
  return result;
}

// -------------------------------------------------------------- serve-warm

RunResult RunServeWarm(const RunConfig& config, Tracer* tracer,
                       Checks* checks) {
  RunResult result;
  Tracer* build_tracer = config.trace ? tracer : nullptr;
  Collection coll(Dataset::kDblp, kServeDocs, Mix(config.seed, 1));
  LiveDb db(&coll, config.workdir + "/serve.prix", /*all_engines=*/false,
            build_tracer);
  db.StartServer(kServeQueryThreads);
  const double setup_s = SecondsSince(config.start_ns);
  const uint64_t db_bytes = db.FileBytes();
  std::fprintf(stderr, "[serve-warm] %zu docs, %zu nodes, port %u\n",
               coll.size(), coll.total_nodes(), db.port());

  // The request stream, drawn ahead so the clients only send.
  std::vector<uint32_t> ids(coll.size());
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  QueryGen gen(&coll, Mix(config.seed, 2));
  auto identity = [](uint32_t id) { return id; };
  std::vector<std::string> stream;
  auto grow = [&](size_t n) {
    while (stream.size() < n) stream.push_back(gen.Next(ids, identity));
  };
  grow(200000);

  struct Sample {
    size_t index;
    double ms;
    bool traced;
    WireClient::Reply reply;
  };
  std::vector<std::vector<Sample>> per_client(kServeConnections);
  std::atomic<size_t> next{0};
  const int64_t t0 = NowNs();
  {
    std::vector<std::thread> clients;
    std::vector<std::exception_ptr> errors(kServeConnections);
    for (size_t c = 0; c < kServeConnections; ++c) {
      clients.emplace_back([&, c] {
        try {
          WireClient client(db.port());
          for (;;) {
            const double elapsed = SecondsSince(t0);
            const size_t done = next.load();
            if ((elapsed >= config.seconds && done >= kMinOps) ||
                elapsed >= kHardCapFactor * config.seconds) {
              break;
            }
            const size_t i = next.fetch_add(1);
            if (i >= stream.size()) break;
            const bool traced = config.trace && i % 2 == 1;
            const int64_t s0 = NowNs();
            WireClient::Reply reply =
                client.Query(stream[i], i + 1, traced ? tracer : nullptr);
            per_client[c].push_back(
                Sample{i, (NowNs() - s0) / 1e6, traced, std::move(reply)});
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  const double loop_s = SecondsSince(t0);
  const uint64_t cache_hits = db.cache_hits();

  // Every response against the naive answer for its query.
  Oracle oracle(&coll);
  for (uint32_t i = 0; i < coll.size(); ++i) oracle.Put(i, i);
  std::unordered_map<std::string, std::vector<uint32_t>> naive;
  auto naive_docs = [&](const std::string& xpath) {
    auto it = naive.find(xpath);
    if (it == naive.end()) {
      Answer a;
      if (!oracle.Match(xpath, Semantics::kOrdered, &a)) {
        throw std::runtime_error("oracle cannot parse " + xpath);
      }
      it = naive.emplace(xpath, std::move(a.docs)).first;
    }
    return it->second;
  };
  std::vector<double> ms, traced_ms;
  size_t answered = 0;
  for (const auto& samples : per_client) {
    for (const Sample& s : samples) {
      ++result.attempted;
      if (!s.reply.ok) {
        ++result.failed;
        std::fprintf(stderr, "request %zu failed: %s\n", s.index,
                     s.reply.error.c_str());
        continue;
      }
      ++answered;
      (s.traced ? traced_ms : ms).push_back(s.ms);
      checks->Expect("serve_answers", s.reply.docs, naive_docs(stream[s.index]),
                     stream[s.index]);
    }
  }
  std::fprintf(stderr,
               "[serve-warm] %zu requests in %.2f s, %llu cache hits\n",
               answered, loop_s, (unsigned long long)cache_hits);

  // The same stream through RunReplay (the served path, as `prix
  // bench-serve` sends it) and through QueryDriver in-process must reach the
  // same documents.
  const size_t seg0 = next.load();
  grow(seg0 + kServeCheckQueries);
  std::vector<std::string> segment(stream.begin() + seg0,
                                   stream.begin() + seg0 + kServeCheckQueries);
  ReplayRun replay = Replay(db.port(), segment, kServeConnections,
                            Mix(config.seed, 3), nullptr);
  if (!replay.ok) throw std::runtime_error("replay: " + replay.error);
  uint64_t inprocess_docs = 0;
  std::vector<double> batch_us, open_us;
  IoCounts io;
  for (size_t i = 0; i < segment.size(); ++i) {
    BatchRun b = db.SnapshotBatch({segment[i]}, nullptr, 0);
    if (!b.ok) throw std::runtime_error("in-process batch: " + b.error);
    inprocess_docs += b.docs[0].size();
    batch_us.push_back(b.ms * 1e3);
    io.pool_hits += b.io.pool_hits;
    io.pool_misses += b.io.pool_misses;
    io.pages_read += b.io.pages_read;
    io.pages_written += b.io.pages_written;
    if (config.trace) open_us.push_back(db.SnapshotOpenUs(tracer, 0));
  }
  checks->Expect("two_paths", replay.docs, inprocess_docs,
                 "documents reached by RunReplay vs QueryDriver");
  checks->Expect("two_paths", replay.answered,
                 static_cast<uint64_t>(segment.size()),
                 "requests RunReplay got answers for");

  if (!config.trace) {
    AddEndToEnd(&result, setup_s, ms, answered / loop_s, db_bytes);
    return result;
  }
  std::map<std::string, double> layer;
  const double n = static_cast<double>(segment.size());
  layer["storage.pool_hits"] = io.pool_hits / n;
  layer["storage.pool_misses"] = io.pool_misses / n;
  layer["storage.pages_read"] = io.pages_read / n;
  layer["storage.pages_written"] = io.pages_written / n;
  layer["db.snapshot_open_us"] = Median(open_us);
  layer["serve.request_us"] = Median(replay.latencies_us);
  layer["serve.batch_us"] = Median(batch_us);
  layer["serve.cache_hits"] = static_cast<double>(cache_hits);
  layer["build.prix_s"] = db.build().prix_s;
  layer["build.pages.prix"] = db.build().prix_pages;
  layer["trace.overhead_pct"] = OverheadPct(traced_ms, ms);
  AddPerLayer(&result, layer);
  return result;
}

// ------------------------------------------------------------ ingest-mixed

namespace {

struct WriteOp {
  enum Kind { kInsert, kUpdate, kDelete } kind;
  uint32_t coll_index = 0;  ///< document written (insert, update)
  size_t victim = 0;        ///< position in the live list (update, delete)
};

}  // namespace

RunResult RunIngestMixed(const RunConfig& config, Tracer* tracer,
                         Checks* checks) {
  RunResult result;
  Tracer* build_tracer = config.trace ? tracer : nullptr;
  Collection coll(Dataset::kDblp, kIngestBaseDocs, Mix(config.seed, 1));
  LiveDb db(&coll, config.workdir + "/ingest.prix", /*all_engines=*/true,
            build_tracer);
  // Fresh documents for inserts and updates, from an independent stream.
  Collection fresh(Dataset::kDblp, kIngestPoolDocs, Mix(config.seed, 2));
  std::vector<uint32_t> pool;
  for (uint32_t i = 0; i < fresh.size(); ++i) {
    pool.push_back(coll.Import(fresh, i));
  }
  db.Checkpoint();
  const double setup_s = SecondsSince(config.start_ns);
  const uint64_t pristine_bytes = db.FileBytes();
  const uint64_t pristine_oplog = db.OplogBytes();

  // One round of writes: half inserts, a quarter updates, a quarter deletes.
  std::mt19937_64 rng(Mix(config.seed, 3));
  std::vector<WriteOp> ops;
  for (size_t j = 0; j < kIngestWritesPerRound; ++j) {
    const uint64_t roll = rng() % 4;
    WriteOp op;
    op.kind = roll < 2 ? WriteOp::kInsert
                       : roll == 2 ? WriteOp::kUpdate : WriteOp::kDelete;
    op.coll_index = pool[rng() % pool.size()];
    op.victim = rng();
    ops.push_back(op);
  }
  const uint64_t read_seed = Mix(config.seed, 4);
  // Queries for the final check of the derived engines: Q1-Q3 and two
  // structure queries of the read stream.
  const std::vector<std::string> final_queries = {
      kPaperQueries[0].xpath, kPaperQueries[1].xpath, kPaperQueries[2].xpath,
      "//inproceedings[./author]/pages", "//www[./url]/title"};

  std::vector<double> write_ms, traced_write_ms, read_ms, open_us;
  std::map<int, std::vector<double>> kind_us;
  std::vector<double> commit_pages, write_nodes;
  uint64_t bytes_written = 0, writes_ok = 0;
  uint64_t round1_bytes = 0, round1_oplog = 0, round1_free = 0;
  IoCounts write_io;
  uint64_t request = 0;
  const int64_t t0 = NowNs();
  for (size_t round = 0;; ++round) {
    const double elapsed = SecondsSince(t0);
    if (round > 0 && ((elapsed >= config.seconds && writes_ok >= kMinOps) ||
                      elapsed >= kHardCapFactor * config.seconds)) {
      break;
    }
    if (round > 0) db.Restore();
    db.WarmWriter();
    Oracle model(&coll);
    for (uint32_t i = 0; i < kIngestBaseDocs; ++i) model.Put(i, i);
    std::vector<uint32_t> live(kIngestBaseDocs);
    for (uint32_t i = 0; i < kIngestBaseDocs; ++i) live[i] = i;
    size_t inserts = 0, deletes = 0;
    QueryGen reads(&coll, read_seed);
    for (size_t j = 0; j < ops.size(); ++j) {
      const WriteOp& op = ops[j];
      const bool traced = config.trace && j % 2 == 1;
      Tracer* t = traced ? tracer : nullptr;
      ++result.attempted;
      const size_t victim = op.victim % live.size();
      WriteRun w;
      switch (op.kind) {
        case WriteOp::kInsert: w = db.Insert(op.coll_index, t, ++request); break;
        case WriteOp::kUpdate:
          w = db.Update(live[victim], op.coll_index, t, ++request);
          break;
        case WriteOp::kDelete: w = db.Delete(live[victim], t, ++request); break;
      }
      if (!w.ok) {
        ++result.failed;
        std::fprintf(stderr, "write %zu failed: %s\n", j, w.error.c_str());
        continue;
      }
      ++writes_ok;
      if (op.kind != WriteOp::kDelete) {
        checks->Expect("docids_agree", w.ep_id, w.rp_id,
                       "rp vs ep DocId of write " + std::to_string(j));
      }
      switch (op.kind) {
        case WriteOp::kInsert:
          model.Put(w.rp_id, op.coll_index);
          live.push_back(w.rp_id);
          ++inserts;
          break;
        case WriteOp::kUpdate:
          model.Erase(live[victim]);
          model.Put(w.rp_id, op.coll_index);
          live[victim] = w.rp_id;
          break;
        case WriteOp::kDelete:
          model.Erase(live[victim]);
          live[victim] = live.back();
          live.pop_back();
          ++deletes;
          break;
      }
      if (traced) {
        traced_write_ms.push_back(w.ms);
        kind_us[op.kind].push_back(w.ms * 1e3);
      } else {
        write_ms.push_back(w.ms);
      }
      commit_pages.push_back(w.io.pages_written);
      write_nodes.push_back(w.io.btree_nodes);
      write_io.pool_hits += w.io.pool_hits;
      write_io.pool_misses += w.io.pool_misses;
      write_io.pages_read += w.io.pages_read;
      write_io.pages_written += w.io.pages_written;
      bytes_written += w.bytes_written;
      if (db.FileBytes() > kIngestFileCapBytes) {
        throw std::runtime_error(
            "database passed its " + std::to_string(kIngestFileCapBytes) +
            "-byte cap after write " + std::to_string(j));
      }

      if ((j + 1) % kIngestWritesPerRead != 0) continue;
      // A snapshot read batch over the current live documents.
      std::vector<std::string> batch;
      auto index_of = [&](uint32_t id) { return model.IndexOf(id); };
      for (size_t k = 0; k < kIngestReadBatch; ++k) {
        batch.push_back(reads.Next(live, index_of));
      }
      if (traced) open_us.push_back(db.SnapshotOpenUs(tracer, request));
      ++result.attempted;
      BatchRun b = db.SnapshotBatch(batch, t, request);
      if (!b.ok) {
        ++result.failed;
        std::fprintf(stderr, "read batch failed: %s\n", b.error.c_str());
        continue;
      }
      read_ms.push_back(b.ms);
      for (size_t k = 0; k < batch.size(); ++k) {
        Answer a;
        if (!model.Match(batch[k], Semantics::kOrdered, &a)) {
          throw std::runtime_error("oracle cannot parse " + batch[k]);
        }
        checks->Expect("ingest_reads", b.docs[k], a.docs, batch[k]);
      }
      const auto [rp_live, ep_live] = db.LiveDocs();
      const size_t expected_live = kIngestBaseDocs + inserts - deletes;
      checks->Expect("live_count", rp_live, expected_live, "rp live docs");
      checks->Expect("live_count", ep_live, expected_live, "ep live docs");
      checks->Expect("live_count", model.live(), expected_live,
                     "model live docs");
    }
    // The derived engines, opened from the final snapshot.
    for (Engine e : {Engine::kVist, Engine::kTwigStack, Engine::kTwigStackXb}) {
      for (const std::string& x : final_queries) {
        ColdRun r = db.RunOnSnapshot(e, x);
        ++result.attempted;
        if (!r.ok) {
          ++result.failed;
          std::fprintf(stderr, "%s on final snapshot failed: %s\n",
                       EngineName(e), r.error.c_str());
          continue;
        }
        Answer a;
        if (!model.Match(x, SemanticsOf(e), &a)) {
          throw std::runtime_error("oracle cannot parse " + x);
        }
        checks->Expect("derived_final", r.answer, a,
                       std::string(EngineName(e)) + " " + x + ": " +
                           std::to_string(r.answer.matches.size()) +
                           " matches in " +
                           std::to_string(r.answer.docs.size()) +
                           " docs, oracle " + std::to_string(a.matches.size()) +
                           " in " + std::to_string(a.docs.size()));
      }
    }
    if (round == 0) {
      round1_bytes = db.FileBytes();
      round1_oplog = db.OplogBytes() - pristine_oplog;
      round1_free = db.FreePages();
    }
  }
  std::fprintf(stderr,
               "[ingest-mixed] %llu writes in %.2f s; file %llu -> %llu "
               "bytes after one round\n",
               (unsigned long long)writes_ok, SecondsSince(t0),
               (unsigned long long)pristine_bytes,
               (unsigned long long)round1_bytes);

  if (!config.trace) {
    double total_s = 0;
    for (double m : write_ms) total_s += m / 1e3;
    AddEndToEnd(&result, setup_s, write_ms,
                total_s > 0 ? write_ms.size() / total_s : 0, round1_bytes);
    return result;
  }
  std::map<std::string, double> layer;
  const double n = static_cast<double>(std::max<uint64_t>(writes_ok, 1));
  layer["storage.pool_hits"] = write_io.pool_hits / n;
  layer["storage.pool_misses"] = write_io.pool_misses / n;
  layer["storage.pages_read"] = write_io.pages_read / n;
  layer["storage.pages_written"] = write_io.pages_written / n;
  layer["btree.nodes.write"] = Median(write_nodes);
  layer["db.snapshot_open_us"] = Median(open_us);
  layer["read_p50_ms"] = Median(read_ms);
  layer["db.insert_us"] = Median(kind_us[WriteOp::kInsert]);
  layer["db.update_us"] = Median(kind_us[WriteOp::kUpdate]);
  layer["db.delete_us"] = Median(kind_us[WriteOp::kDelete]);
  layer["db.commit_pages"] = Median(commit_pages);
  layer["db.oplog_bytes"] = round1_oplog / static_cast<double>(ops.size());
  layer["db.free_pages"] = static_cast<double>(round1_free);
  layer["write_bytes_per_op"] = bytes_written / n;
  layer["build.prix_s"] = db.build().prix_s;
  layer["build.vist_s"] = db.build().vist_s;
  layer["build.twigstack_s"] = db.build().twigstack_s;
  layer["build.pages.prix"] = db.build().prix_pages;
  layer["build.pages.vist"] = db.build().vist_pages;
  layer["build.pages.twigstack"] = db.build().twigstack_pages;
  layer["trace.overhead_pct"] = OverheadPct(traced_write_ms, write_ms);
  AddPerLayer(&result, layer);
  return result;
}

}  // namespace prixbench
