#include "adapter.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/queryfile.h"
#include "datagen/dblp_gen.h"
#include "datagen/swissprot_gen.h"
#include "datagen/treebank_gen.h"
#include "db/database.h"
#include "naive/naive_matcher.h"
#include "prix/prix_index.h"
#include "prix/query_driver.h"
#include "prix/query_processor.h"
#include "prix/snapshot_view.h"
#include "query/twig_pattern.h"
#include "query/xpath_parser.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "storage/oplog.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_index.h"
#include "vist/vist_query.h"
#include "xml/document.h"

namespace prixbench {

namespace {

namespace fs = std::filesystem;
using Scope = Tracer::Scope;

/// Infrastructure failures (cannot build, open or start) end the run.
[[noreturn]] void Fatal(const std::string& what, const prix::Status& st) {
  throw std::runtime_error(what + ": " + st.ToString());
}

template <typename T>
T Must(prix::Result<T> r, const std::string& what) {
  if (!r.ok()) Fatal(what, r.status());
  return std::move(*r);
}

void MustOk(const prix::Status& st, const std::string& what) {
  if (!st.ok()) Fatal(what, st);
}

double MsSince(int64_t t0) { return (NowNs() - t0) / 1e6; }

IoCounts ToIo(const prix::MetricCounters& c) {
  IoCounts io;
  io.pool_hits = c.pool_hits;
  io.pool_misses = c.pool_misses;
  io.pages_read = c.physical_reads;
  io.pages_written = c.physical_writes;
  io.btree_nodes = c.btree_nodes;
  return io;
}

Answer ToAnswer(const std::vector<prix::TwigMatch>& matches,
                const std::vector<prix::DocId>& docs) {
  Answer a;
  a.docs.assign(docs.begin(), docs.end());
  std::sort(a.docs.begin(), a.docs.end());
  a.docs.erase(std::unique(a.docs.begin(), a.docs.end()), a.docs.end());
  a.matches.reserve(matches.size());
  for (const prix::TwigMatch& m : matches) {
    std::vector<uint32_t> row;
    row.reserve(m.image.size() + 1);
    row.push_back(m.doc);
    row.insert(row.end(), m.image.begin(), m.image.end());
    a.matches.push_back(std::move(row));
  }
  std::sort(a.matches.begin(), a.matches.end());
  return a;
}

prix::MatchSemantics ToPrix(Semantics s) {
  return s == Semantics::kOrdered ? prix::MatchSemantics::kOrdered
                                  : prix::MatchSemantics::kStandard;
}

/// Copies `from` over `to` and makes the copy durable, so the first commit
/// after a restore does not pay for flushing the whole copied file.
void CopyDurably(const std::string& from, const std::string& to) {
  fs::copy_file(from, to, fs::copy_options::overwrite_existing);
  int fd = ::open(to.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0 || ::fdatasync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot sync " + to);
  }
  ::close(fd);
}

void RemoveDbFiles(const std::string& path) {
  std::error_code ec;
  for (const std::string& p :
       {path, prix::OpLog::PathFor(path), path + ".pristine",
        prix::OpLog::PathFor(path) + ".pristine"}) {
    fs::remove(p, ec);
  }
}

/// Size of a file, 0 if absent.
uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

/// Bytes this process has passed to write-family system calls so far.
uint64_t ProcessWriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

}  // namespace

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kPrix: return "prix";
    case Engine::kVist: return "vist";
    case Engine::kTwigStack: return "twigstack";
    case Engine::kTwigStackXb: return "twigstackxb";
  }
  return "?";
}

Semantics SemanticsOf(Engine e) {
  return e == Engine::kTwigStack || e == Engine::kTwigStackXb
             ? Semantics::kStandard
             : Semantics::kOrdered;
}

// ---------------------------------------------------------------- Collection

struct Collection::Impl {
  prix::DocumentCollection coll;
};

Collection::Collection(Dataset dataset, size_t docs, uint64_t seed)
    : impl_(std::make_unique<Impl>()) {
  switch (dataset) {
    case Dataset::kDblp: {
      prix::datagen::DblpConfig c;
      c.num_records = docs;
      c.seed = seed;
      impl_->coll = prix::datagen::GenerateDblp(c);
      break;
    }
    case Dataset::kSwissprot: {
      prix::datagen::SwissprotConfig c;
      c.num_entries = docs;
      c.seed = seed;
      impl_->coll = prix::datagen::GenerateSwissprot(c);
      break;
    }
    case Dataset::kTreebank: {
      prix::datagen::TreebankConfig c;
      c.num_sentences = docs;
      c.seed = seed;
      impl_->coll = prix::datagen::GenerateTreebank(c);
      break;
    }
  }
}

Collection::~Collection() = default;

size_t Collection::size() const { return impl_->coll.documents.size(); }
size_t Collection::total_nodes() const { return impl_->coll.TotalNodes(); }

std::string Collection::RootTag(uint32_t doc) const {
  const prix::Document& d = impl_->coll.documents.at(doc);
  return impl_->coll.dictionary.Name(d.label(d.root()));
}

std::vector<std::pair<std::string, std::string>> Collection::Fields(
    uint32_t doc) const {
  const prix::Document& d = impl_->coll.documents.at(doc);
  const prix::TagDictionary& dict = impl_->coll.dictionary;
  std::vector<std::pair<std::string, std::string>> out;
  for (prix::NodeId c : d.children(d.root())) {
    const auto& kids = d.children(c);
    if (kids.size() == 1 && d.kind(kids[0]) == prix::NodeKind::kValue) {
      out.emplace_back(dict.Name(d.label(c)), dict.Name(d.label(kids[0])));
    }
  }
  return out;
}

uint32_t Collection::Import(const Collection& other, uint32_t doc) {
  const prix::Document& src = other.impl_->coll.documents.at(doc);
  const prix::TagDictionary& from = other.impl_->coll.dictionary;
  prix::TagDictionary& to = impl_->coll.dictionary;
  const uint32_t index = static_cast<uint32_t>(impl_->coll.documents.size());
  prix::Document out(index);
  std::vector<std::pair<prix::NodeId, prix::NodeId>> stack;  // (src, dst)
  stack.emplace_back(src.root(),
                     out.AddRoot(to.Intern(from.Name(src.label(src.root()))),
                                 src.kind(src.root())));
  while (!stack.empty()) {
    auto [s, t] = stack.back();
    stack.pop_back();
    const auto& kids = src.children(s);
    std::vector<std::pair<prix::NodeId, prix::NodeId>> added;
    for (prix::NodeId k : kids) {
      added.emplace_back(
          k, out.AddChild(t, to.Intern(from.Name(src.label(k))), src.kind(k)));
    }
    stack.insert(stack.end(), added.rbegin(), added.rend());
  }
  impl_->coll.documents.push_back(std::move(out));
  return index;
}

// -------------------------------------------------------------------- Oracle

struct Oracle::Impl {
  Collection* coll = nullptr;
  std::map<uint32_t, uint32_t> live;  // engine DocId -> collection index
  std::unordered_map<prix::LabelId, std::vector<uint32_t>> postings;
};

Oracle::Oracle(Collection* coll) : impl_(std::make_unique<Impl>()) {
  impl_->coll = coll;
}
Oracle::~Oracle() = default;

void Oracle::Put(uint32_t id, uint32_t index) {
  impl_->live[id] = index;
  const prix::Document& d = impl_->coll->impl()->coll.documents.at(index);
  std::unordered_set<prix::LabelId> labels;
  for (prix::NodeId n = 0; n < d.num_nodes(); ++n) labels.insert(d.label(n));
  for (prix::LabelId l : labels) impl_->postings[l].push_back(id);
}

void Oracle::Erase(uint32_t id) { impl_->live.erase(id); }
size_t Oracle::live() const { return impl_->live.size(); }
uint32_t Oracle::IndexOf(uint32_t id) const { return impl_->live.at(id); }

std::vector<uint32_t> Oracle::LiveIds() const {
  std::vector<uint32_t> ids;
  ids.reserve(impl_->live.size());
  for (const auto& [id, index] : impl_->live) ids.push_back(id);
  return ids;
}

bool Oracle::Match(const std::string& xpath, Semantics semantics,
                   Answer* out) {
  prix::DocumentCollection& coll = impl_->coll->impl()->coll;
  auto pattern = prix::ParseXPath(xpath, &coll.dictionary);
  if (!pattern.ok()) return false;
  prix::EffectiveTwig twig = prix::EffectiveTwig::Build(*pattern);
  // Candidates: the shortest posting list among the query's labels.
  const std::vector<uint32_t>* shortest = nullptr;
  static const std::vector<uint32_t> kNone;
  bool any_label = false;
  for (uint32_t i = 0; i < twig.num_nodes(); ++i) {
    prix::LabelId l = twig.node(i).label;
    if (twig.is_star(i) || l == prix::kInvalidLabel) continue;
    any_label = true;
    auto it = impl_->postings.find(l);
    const std::vector<uint32_t>* list =
        it == impl_->postings.end() ? &kNone : &it->second;
    if (shortest == nullptr || list->size() < shortest->size()) {
      shortest = list;
    }
  }
  std::vector<uint32_t> candidates;
  if (any_label) {
    candidates = *shortest;
  } else {
    candidates = LiveIds();
  }
  std::vector<prix::TwigMatch> matches;
  std::vector<prix::DocId> docs;
  for (uint32_t id : candidates) {
    auto it = impl_->live.find(id);
    if (it == impl_->live.end()) continue;
    std::vector<prix::TwigMatch> m = prix::NaiveMatch(
        coll.documents[it->second], twig, ToPrix(semantics));
    if (m.empty()) continue;
    docs.push_back(id);
    for (prix::TwigMatch& t : m) {
      t.doc = id;
      matches.push_back(std::move(t));
    }
  }
  *out = ToAnswer(matches, docs);
  return true;
}

// ------------------------------------------------------------------ EngineDb

struct EngineDb::Impl {
  Collection* coll = nullptr;
  std::string path;
  std::unique_ptr<prix::Database> db;
  std::unique_ptr<prix::PrixIndex> rp, ep;
  std::unique_ptr<prix::VistIndex> vist;
  std::unique_ptr<prix::StreamStore> streams;
  std::unique_ptr<prix::XbForest> forest;
};

EngineDb::EngineDb(Collection* coll, const std::string& path, Tracer* tracer)
    : impl_(std::make_unique<Impl>()) {
  Impl& m = *impl_;
  m.coll = coll;
  m.path = path;
  m.db = Must(prix::Database::Create(path), "create " + path);
  const auto& docs = coll->impl()->coll.documents;
  prix::BufferPool* pool = m.db->pool();
  auto pages = [&] { return static_cast<uint64_t>(m.db->disk()->num_pages()); };
  uint64_t p0 = pages();
  int64_t t0 = NowNs();
  {
    Scope s(tracer, "build.prix", 0, 0);
    prix::PrixIndexOptions rp_opts;
    m.rp = Must(prix::PrixIndex::Build(docs, pool, rp_opts), "build rp");
    prix::PrixIndexOptions ep_opts;
    ep_opts.extended = true;
    m.ep = Must(prix::PrixIndex::Build(docs, pool, ep_opts), "build ep");
  }
  build_.prix_s = MsSince(t0) / 1e3;
  uint64_t p1 = pages();
  t0 = NowNs();
  {
    Scope s(tracer, "build.vist", 0, 0);
    m.vist = Must(prix::VistIndex::Build(docs, pool), "build vist");
  }
  build_.vist_s = MsSince(t0) / 1e3;
  uint64_t p2 = pages();
  t0 = NowNs();
  {
    Scope s(tracer, "build.twigstack", 0, 0);
    m.streams = Must(prix::StreamStore::Build(docs, pool), "build streams");
    m.forest = Must(
        prix::XbForest::Build(m.streams.get(), coll->impl()->coll.dictionary),
        "build xb-forest");
  }
  build_.twigstack_s = MsSince(t0) / 1e3;
  uint64_t p3 = pages();
  build_.prix_pages = p1 - p0;
  build_.vist_pages = p2 - p1;
  build_.twigstack_pages = p3 - p2;
  MustOk(m.db->ColdStart(), "flush after build");
}

EngineDb::~EngineDb() {
  impl_->rp.reset();
  impl_->ep.reset();
  impl_->vist.reset();
  impl_->forest.reset();
  impl_->streams.reset();
  if (impl_->db != nullptr) impl_->db->Abandon();
  impl_->db.reset();
  RemoveDbFiles(impl_->path);
}

uint64_t EngineDb::FileBytes() const {
  return FileSize(impl_->path) +
         FileSize(prix::OpLog::PathFor(impl_->path));
}

ColdRun EngineDb::RunCold(Engine engine, const std::string& xpath,
                          Tracer* tracer, uint64_t request, uint32_t key) {
  Impl& m = *impl_;
  ColdRun r;
  Scope op(tracer, "cold_query", request, key);
  {
    Scope s(tracer, "storage.cold_start", request, key);
    MustOk(m.db->ColdStart(), "cold start");
  }
  prix::MetricsContext mctx;
  int64_t t0 = NowNs();
  prix::Result<prix::TwigPattern> pattern = [&] {
    Scope s(tracer, "query.parse", request, key);
    return prix::ParseXPath(xpath, &m.coll->impl()->coll.dictionary);
  }();
  if (!pattern.ok()) {
    r.error = pattern.status().ToString();
    return r;
  }
  switch (engine) {
    case Engine::kPrix: {
      Scope s(tracer, "prix.execute", request, key);
      prix::QueryProcessor qp(*m.db, m.rp.get(), m.ep.get());
      auto qr = qp.Execute(*pattern);
      if (!qr.ok()) {
        r.error = qr.status().ToString();
        return r;
      }
      r.answer = ToAnswer(qr->matches, qr->docs);
      r.match_us = qr->stats.match_us;
      r.refine_us = qr->stats.refine_us;
      r.verify_us = qr->stats.verify_us;
      r.candidates = qr->stats.matcher.occurrences;
      r.docs_loaded = qr->stats.docs_loaded;
      break;
    }
    case Engine::kVist: {
      Scope s(tracer, "vist.execute", request, key);
      prix::VistQueryProcessor qp(m.vist.get());
      auto qr = qp.Execute(*pattern);
      if (!qr.ok()) {
        r.error = qr.status().ToString();
        return r;
      }
      r.answer = ToAnswer(qr->matches, qr->docs);
      r.keys_matched = qr->stats.matched_prefixes;
      break;
    }
    case Engine::kTwigStack:
    case Engine::kTwigStackXb: {
      const bool xb = engine == Engine::kTwigStackXb;
      Scope s(tracer, xb ? "twigstackxb.execute" : "twigstack.execute",
              request, key);
      prix::TwigStackEngine eng(m.streams.get(),
                                xb ? m.forest.get() : nullptr);
      auto qr = eng.Execute(*pattern);
      if (!qr.ok()) {
        r.error = qr.status().ToString();
        return r;
      }
      r.answer = ToAnswer(qr->matches, qr->docs);
      r.elements = qr->stats.elements_processed;
      break;
    }
  }
  r.ms = MsSince(t0);
  r.io = ToIo(mctx.counters);
  r.ok = true;
  return r;
}

// -------------------------------------------------------------------- LiveDb

struct LiveDb::Impl {
  Collection* coll = nullptr;
  std::string path;
  std::unique_ptr<prix::Database> db;
  std::unique_ptr<prix::QueryDriver> driver;  // in-process snapshot reads
  std::unique_ptr<prix::Server> server;

  prix::TagDictionary* dict() { return &coll->impl()->coll.dictionary; }
  const prix::Document& doc(uint32_t index) {
    return coll->impl()->coll.documents.at(index);
  }
  void Open() {
    db = Must(prix::Database::Open(path), "open " + path);
    driver = std::make_unique<prix::QueryDriver>(*db, nullptr, nullptr, 1);
  }
  void Drop() {
    driver.reset();
    if (db != nullptr) db->Abandon();
    db.reset();
  }
};

LiveDb::LiveDb(Collection* coll, const std::string& path, bool all_engines,
               Tracer* tracer)
    : impl_(std::make_unique<Impl>()) {
  Impl& m = *impl_;
  m.coll = coll;
  m.path = path;
  m.db = Must(prix::Database::Create(path), "create " + path);
  const auto& docs = coll->impl()->coll.documents;
  prix::BufferPool* pool = m.db->pool();
  prix::Database* db = m.db.get();
  auto pages = [&] { return static_cast<uint64_t>(db->disk()->num_pages()); };
  uint64_t p0 = pages();
  int64_t t0 = NowNs();
  {
    Scope s(tracer, "build.prix", 0, 0);
    prix::PrixIndexOptions rp_opts;
    auto rp = Must(prix::PrixIndex::Build(docs, pool, rp_opts), "build rp");
    MustOk(rp->Save(db, "rp"), "save rp");
    prix::PrixIndexOptions ep_opts;
    ep_opts.extended = true;
    auto ep = Must(prix::PrixIndex::Build(docs, pool, ep_opts), "build ep");
    MustOk(ep->Save(db, "ep"), "save ep");
  }
  build_.prix_s = MsSince(t0) / 1e3;
  uint64_t p1 = pages();
  if (all_engines) {
    t0 = NowNs();
    {
      Scope s(tracer, "build.vist", 0, 0);
      auto vist = Must(prix::VistIndex::Build(docs, pool), "build vist");
      MustOk(vist->Save(db, "v"), "save vist");
    }
    build_.vist_s = MsSince(t0) / 1e3;
    uint64_t p2 = pages();
    t0 = NowNs();
    {
      Scope s(tracer, "build.twigstack", 0, 0);
      auto streams =
          Must(prix::StreamStore::Build(docs, pool), "build streams");
      MustOk(streams->Save(db, "ts"), "save streams");
      auto forest = Must(prix::XbForest::Build(streams.get(), *m.dict()),
                         "build xb-forest");
      MustOk(forest->Save(db, "xb"), "save xb-forest");
    }
    build_.twigstack_s = MsSince(t0) / 1e3;
    build_.vist_pages = p2 - p1;
    build_.twigstack_pages = pages() - p2;
  }
  build_.prix_pages = p1 - p0;
  m.driver = std::make_unique<prix::QueryDriver>(*db, nullptr, nullptr, 1);
}

LiveDb::~LiveDb() {
  StopServer();
  impl_->Drop();
  RemoveDbFiles(impl_->path);
}

void LiveDb::Checkpoint() {
  Impl& m = *impl_;
  m.driver.reset();
  MustOk(m.db->Close(), "close " + m.path);
  m.db.reset();
  const std::string oplog = prix::OpLog::PathFor(m.path);
  fs::copy_file(m.path, m.path + ".pristine",
                fs::copy_options::overwrite_existing);
  fs::copy_file(oplog, oplog + ".pristine",
                fs::copy_options::overwrite_existing);
  m.Open();
}

void LiveDb::Restore() {
  Impl& m = *impl_;
  m.Drop();
  const std::string oplog = prix::OpLog::PathFor(m.path);
  CopyDurably(m.path + ".pristine", m.path);
  CopyDurably(oplog + ".pristine", oplog);
  m.Open();
}

void LiveDb::WarmWriter() {
  // A delete of a DocId past the end of the store is refused (NotFound)
  // only after the writer has loaded its per-index state, so this loads the
  // state and writes nothing.
  constexpr uint32_t kNoSuchDoc = 0xfffffff0u;
  for (const char* name : {"rp", "ep"}) {
    prix::Status st = impl_->db->DeleteDocument(name, kNoSuchDoc);
    if (!st.IsNotFound()) Fatal(std::string("warm writer ") + name, st);
  }
}

namespace {

/// Applies one logical write to rp, then ep, as `prix insert`/`prix delete`
/// do; the derived engines ride the rp commit.
template <typename Fn>
WriteRun TimedWrite(Tracer* tracer, const char* span, uint64_t request,
                    Fn&& fn) {
  WriteRun w;
  prix::MetricsContext mctx;
  const uint64_t bytes0 = ProcessWriteBytes();
  const int64_t t0 = NowNs();
  {
    Scope s(tracer, span, request, 0);
    fn(&w);
  }
  w.ms = MsSince(t0);
  w.bytes_written = ProcessWriteBytes() - bytes0;
  w.io = ToIo(mctx.counters);
  return w;
}

}  // namespace

WriteRun LiveDb::Insert(uint32_t coll_index, Tracer* tracer,
                        uint64_t request) {
  Impl& m = *impl_;
  const prix::Document& doc = m.doc(coll_index);
  return TimedWrite(tracer, "db.insert", request, [&](WriteRun* w) {
    auto rp = m.db->InsertDocument("rp", doc);
    if (!rp.ok()) {
      w->error = "insert rp: " + rp.status().ToString();
      return;
    }
    auto ep = m.db->InsertDocument("ep", doc);
    if (!ep.ok()) {
      w->error = "insert ep: " + ep.status().ToString();
      return;
    }
    w->rp_id = *rp;
    w->ep_id = *ep;
    w->ok = true;
  });
}

WriteRun LiveDb::Update(uint32_t id, uint32_t coll_index, Tracer* tracer,
                        uint64_t request) {
  Impl& m = *impl_;
  const prix::Document& doc = m.doc(coll_index);
  return TimedWrite(tracer, "db.update", request, [&](WriteRun* w) {
    auto rp = m.db->UpdateDocument("rp", id, doc);
    if (!rp.ok()) {
      w->error = "update rp: " + rp.status().ToString();
      return;
    }
    auto ep = m.db->UpdateDocument("ep", id, doc);
    if (!ep.ok()) {
      w->error = "update ep: " + ep.status().ToString();
      return;
    }
    w->rp_id = *rp;
    w->ep_id = *ep;
    w->ok = true;
  });
}

WriteRun LiveDb::Delete(uint32_t id, Tracer* tracer, uint64_t request) {
  Impl& m = *impl_;
  return TimedWrite(tracer, "db.delete", request, [&](WriteRun* w) {
    prix::Status st = m.db->DeleteDocument("rp", id);
    if (!st.ok()) {
      w->error = "delete rp: " + st.ToString();
      return;
    }
    st = m.db->DeleteDocument("ep", id);
    if (!st.ok()) {
      w->error = "delete ep: " + st.ToString();
      return;
    }
    w->ok = true;
  });
}

BatchRun LiveDb::SnapshotBatch(const std::vector<std::string>& xpaths,
                               Tracer* tracer, uint64_t request) {
  BatchRun b;
  const int64_t t0 = NowNs();
  prix::Result<prix::BatchResult> r = [&] {
    Scope s(tracer, "db.snapshot_batch", request, 0);
    return impl_->driver->ExecuteXPathBatchSnapshot("rp", "ep", xpaths,
                                                    impl_->dict());
  }();
  b.ms = MsSince(t0);
  if (!r.ok()) {
    b.error = r.status().ToString();
    return b;
  }
  for (const prix::QueryResult& q : r->results) {
    b.docs.emplace_back(q.docs.begin(), q.docs.end());
  }
  // The queries ran on the driver's worker thread; their I/O is in the
  // per-query stats, not in a context of this thread.
  const prix::QueryStats& t = r->total;
  b.io.pool_hits = t.pool_hits;
  b.io.pool_misses = t.pool_misses;
  b.io.pages_read = t.pages_read;
  b.io.pages_written = t.pages_written;
  b.io.btree_nodes = t.btree_nodes;
  b.ok = true;
  return b;
}

double LiveDb::SnapshotOpenUs(Tracer* tracer, uint64_t request) {
  Impl& m = *impl_;
  const int64_t t0 = NowNs();
  {
    Scope s(tracer, "db.snapshot_open", request, 0);
    std::shared_ptr<const prix::Snapshot> snap = m.db->OpenSnapshot();
    auto rp = Must(prix::SnapshotView::OpenAt(m.db.get(), snap, "rp"),
                   "open rp view");
    auto ep = Must(prix::SnapshotView::OpenAt(m.db.get(), snap, "ep"),
                   "open ep view");
  }
  return (NowNs() - t0) / 1e3;
}

std::pair<size_t, size_t> LiveDb::LiveDocs() {
  Impl& m = *impl_;
  std::shared_ptr<const prix::Snapshot> snap = m.db->OpenSnapshot();
  auto rp = Must(prix::SnapshotView::OpenAt(m.db.get(), snap, "rp"), "rp");
  auto ep = Must(prix::SnapshotView::OpenAt(m.db.get(), snap, "ep"), "ep");
  return {rp.index()->num_live_docs(), ep.index()->num_live_docs()};
}

ColdRun LiveDb::RunOnSnapshot(Engine engine, const std::string& xpath) {
  Impl& m = *impl_;
  ColdRun r;
  std::shared_ptr<const prix::Snapshot> snap = m.db->OpenSnapshot();
  prix::BufferPool* pool = m.db->pool();
  auto pattern = prix::ParseXPath(xpath, m.dict());
  if (!pattern.ok()) {
    r.error = pattern.status().ToString();
    return r;
  }
  const int64_t t0 = NowNs();
  if (engine == Engine::kVist) {
    auto entry = Must(snap->GetIndex("v"), "snapshot entry v");
    auto vist = Must(prix::VistIndex::OpenFromEntry(pool, entry), "open v");
    prix::VistQueryProcessor qp(vist.get());
    auto qr = qp.Execute(*pattern);
    if (!qr.ok()) {
      r.error = qr.status().ToString();
      return r;
    }
    r.answer = ToAnswer(qr->matches, qr->docs);
  } else if (engine == Engine::kTwigStack || engine == Engine::kTwigStackXb) {
    auto ts = Must(snap->GetIndex("ts"), "snapshot entry ts");
    auto streams =
        Must(prix::StreamStore::OpenFromEntry(pool, ts), "open streams");
    std::unique_ptr<prix::XbForest> forest;
    if (engine == Engine::kTwigStackXb) {
      auto xb = Must(snap->GetIndex("xb"), "snapshot entry xb");
      forest = Must(prix::XbForest::OpenFromEntry(pool, xb, streams.get()),
                    "open xb-forest");
    }
    prix::TwigStackEngine eng(streams.get(), forest.get());
    auto qr = eng.Execute(*pattern);
    if (!qr.ok()) {
      r.error = qr.status().ToString();
      return r;
    }
    r.answer = ToAnswer(qr->matches, qr->docs);
  } else {
    r.error = "RunOnSnapshot serves the derived engines only";
    return r;
  }
  r.ms = MsSince(t0);
  r.ok = true;
  return r;
}

uint64_t LiveDb::FileBytes() const {
  return FileSize(impl_->path) + OplogBytes();
}
uint64_t LiveDb::OplogBytes() const {
  return FileSize(prix::OpLog::PathFor(impl_->path));
}
uint64_t LiveDb::FreePages() const { return impl_->db->free_page_count(); }

void LiveDb::StartServer(size_t query_threads) {
  prix::ServerOptions o;
  o.port = 0;
  o.query_threads = query_threads;
  o.rp_name = "rp";
  o.ep_name = "ep";
  impl_->server = Must(prix::Server::Start(impl_->db.get(), impl_->dict(), o),
                       "start server");
}

uint16_t LiveDb::port() const { return impl_->server->port(); }
uint64_t LiveDb::cache_hits() const { return impl_->server->cache().hits(); }

void LiveDb::StopServer() {
  if (impl_->server == nullptr) return;
  impl_->server->Stop();
  prix::Status st = impl_->server->Join();
  impl_->server.reset();
  if (!st.ok()) std::fprintf(stderr, "server join: %s\n", st.ToString().c_str());
}

// ---------------------------------------------------------------- WireClient

struct WireClient::Impl {
  int fd = -1;
  prix::FrameDecoder dec;
};

WireClient::WireClient(uint16_t port) : impl_(std::make_unique<Impl>()) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed");
  }
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  impl_->fd = fd;
}

WireClient::~WireClient() {
  if (impl_->fd >= 0) ::close(impl_->fd);
}

WireClient::Reply WireClient::Query(const std::string& xpath,
                                    uint64_t request_id, Tracer* tracer) {
  Reply reply;
  Scope s(tracer, "serve.request", request_id, 0);
  prix::QueryRequest req;
  req.request_id = request_id;
  req.xpaths = {xpath};
  prix::Status st = prix::WriteAll(impl_->fd, prix::EncodeQuery(req));
  if (!st.ok()) {
    reply.error = st.ToString();
    return reply;
  }
  auto frame = prix::ReadFrame(impl_->fd, &impl_->dec, 60'000);
  if (!frame.ok() || !frame->has_value()) {
    reply.error = frame.ok() ? "server closed the connection"
                             : frame.status().ToString();
    return reply;
  }
  const prix::Frame& f = **frame;
  if (f.type == prix::FrameType::kResult) {
    auto resp = prix::DecodeResult(f);
    if (!resp.ok() || resp->docs.size() != 1) {
      reply.error = resp.ok() ? "result frame without one answer"
                              : resp.status().ToString();
      return reply;
    }
    reply.ok = true;
    reply.cached = resp->cached;
    reply.docs = std::move(resp->docs[0]);
  } else if (f.type == prix::FrameType::kError) {
    auto e = prix::DecodeError(f);
    reply.error = e.ok() ? "error: " + e->message : e.status().ToString();
  } else if (f.type == prix::FrameType::kShed) {
    auto e = prix::DecodeShed(f);
    reply.error = e.ok() ? "shed: " + e->message : e.status().ToString();
  } else {
    reply.error = "unexpected frame type";
  }
  return reply;
}

ReplayRun Replay(uint16_t port, const std::vector<std::string>& xpaths,
                 size_t connections, uint64_t seed, Tracer* tracer) {
  ReplayRun out;
  prix::ReplayOptions o;
  o.port = port;
  o.connections = connections;
  o.batch_size = 1;
  o.seed = seed;
  std::vector<prix::QueryFileEntry> queries;
  for (const std::string& x : xpaths) {
    prix::QueryFileEntry e;
    e.id = queries.size() + 1;
    e.text = x;
    queries.push_back(std::move(e));
  }
  prix::ReplayReport report;
  prix::Status st = [&] {
    Scope s(tracer, "serve.replay", 0, 0);
    return prix::RunReplay(o, queries, &report);
  }();
  if (!st.ok()) {
    out.error = st.ToString();
    return out;
  }
  out.ok = true;
  out.requests = report.requests;
  out.answered = report.ok;
  out.docs = report.docs;
  for (uint64_t us : report.latencies_us) out.latencies_us.push_back(us);
  return out;
}

}  // namespace prixbench
