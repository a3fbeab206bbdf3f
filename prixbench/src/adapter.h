// The one place the benchmark calls into the PRIX program.
//
// Every use of the program's API — data generation, Database, PrixIndex,
// QueryProcessor, QueryDriver, VistQueryProcessor, TwigStackEngine,
// Server / RunReplay, SnapshotView and the naive oracle — sits behind this
// header, which includes none of the program's headers. A change to the
// program's API therefore touches adapter.cc alone. When a Tracer is
// recording, each call is wrapped in a span named after the layer it enters.
#ifndef PRIXBENCH_ADAPTER_H_
#define PRIXBENCH_ADAPTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace prixbench {

enum class Dataset { kDblp, kSwissprot, kTreebank };
enum class Engine { kPrix, kVist, kTwigStack, kTwigStackXb };
inline constexpr Engine kAllEngines[] = {Engine::kPrix, Engine::kVist,
                                         Engine::kTwigStack,
                                         Engine::kTwigStackXb};
const char* EngineName(Engine e);  // "prix", "vist", "twigstack", "twigstackxb"

/// Which embeddings count: PRIX and ViST answer under ordered semantics,
/// TwigStack/TwigStackXB under standard twig-join semantics.
enum class Semantics { kOrdered, kStandard };
Semantics SemanticsOf(Engine e);

/// A query's answer in engine-neutral form, comparable across engines.
struct Answer {
  std::vector<uint32_t> docs;  ///< sorted, distinct
  /// Sorted twig matches; each is the DocId followed by the match image.
  std::vector<std::vector<uint32_t>> matches;
  bool operator==(const Answer&) const = default;
};

/// Storage-layer work charged to the calling thread during one call.
struct IoCounts {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t btree_nodes = 0;
};

/// Generated documents sharing one tag dictionary.
class Collection {
 public:
  /// Runs src/datagen for `dataset` with `docs` records and `seed`.
  Collection(Dataset dataset, size_t docs, uint64_t seed);
  ~Collection();
  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  size_t size() const;
  size_t total_nodes() const;
  /// Tag of document `doc`'s root element.
  std::string RootTag(uint32_t doc) const;
  /// (tag, value) of each root child holding one value, in document order.
  std::vector<std::pair<std::string, std::string>> Fields(uint32_t doc) const;
  /// Appends document `doc` of `other` with its labels re-interned into this
  /// collection's dictionary; returns its position here.
  uint32_t Import(const Collection& other, uint32_t doc);

  struct Impl;
  Impl* impl() const { return impl_.get(); }

 private:
  std::unique_ptr<Impl> impl_;
};

/// The benchmark's own model of the live documents, answered by the
/// program's brute-force matcher (src/naive), never by an engine under test.
/// Candidate documents are those containing every label of the query — a
/// necessary condition for any match — so checking stays cheap.
class Oracle {
 public:
  explicit Oracle(Collection* coll);
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Makes collection document `index` live under engine DocId `id`.
  void Put(uint32_t id, uint32_t index);
  void Erase(uint32_t id);
  size_t live() const;
  /// Collection position of live DocId `id`.
  uint32_t IndexOf(uint32_t id) const;
  std::vector<uint32_t> LiveIds() const;

  /// Naive answer over the live documents; `ok` false if the XPath fails to
  /// parse.
  bool Match(const std::string& xpath, Semantics semantics, Answer* out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Cost of building one dataset's engines.
struct BuildCost {
  double prix_s = 0;  ///< RP + EP indexes (trie, Prüfer sequences, B+-trees)
  double vist_s = 0;
  double twigstack_s = 0;  ///< position streams + XB-forest
  uint64_t prix_pages = 0;
  uint64_t vist_pages = 0;
  uint64_t twigstack_pages = 0;
};

/// One cold query: the buffer pool is emptied, then the XPath is parsed and
/// executed. `ms` covers parse + execute.
struct ColdRun {
  bool ok = false;
  std::string error;
  double ms = 0;
  Answer answer;
  IoCounts io;
  // Engine counters (zero where the engine has no such counter).
  uint64_t match_us = 0, refine_us = 0, verify_us = 0;
  uint64_t candidates = 0, docs_loaded = 0;  // PRIX
  uint64_t keys_matched = 0;                 // ViST
  uint64_t elements = 0;                     // TwigStack / TwigStackXB
};

/// One dataset with all four engines built live in one Database (the
/// paper's Sec. 6.1 setup: one paged file behind a 2000-page pool). Queries
/// run against the live, non-snapshot indexes. The files are removed on
/// destruction.
class EngineDb {
 public:
  EngineDb(Collection* coll, const std::string& path, Tracer* tracer);
  ~EngineDb();
  EngineDb(const EngineDb&) = delete;
  EngineDb& operator=(const EngineDb&) = delete;

  const BuildCost& build() const { return build_; }
  ColdRun RunCold(Engine engine, const std::string& xpath, Tracer* tracer,
                  uint64_t request, uint32_t key);
  /// Bytes of the database file and its op-log.
  uint64_t FileBytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  BuildCost build_;
};

/// Outcome of one snapshot read batch through QueryDriver.
struct BatchRun {
  bool ok = false;
  std::string error;
  double ms = 0;
  std::vector<std::vector<uint32_t>> docs;  ///< per query
  IoCounts io;  ///< summed over the batch's queries
};

/// Outcome of one logical write (applied to rp, then ep).
struct WriteRun {
  bool ok = false;
  std::string error;
  double ms = 0;
  uint32_t rp_id = 0;  ///< DocId rp assigned (inserts and updates)
  uint32_t ep_id = 0;  ///< DocId ep assigned
  IoCounts io;
  uint64_t bytes_written = 0;  ///< bytes the process wrote to its files
};

/// A saved collection in one Database file, as `prix index` builds it: rp
/// and ep, plus — with `all_engines` — ViST ("v"), TwigStack streams ("ts")
/// and the XB-forest ("xb"). Serves snapshot reads, online writes and an
/// in-process `prix serve` Server. Files are removed on destruction.
class LiveDb {
 public:
  LiveDb(Collection* coll, const std::string& path, bool all_engines,
         Tracer* tracer);
  ~LiveDb();
  LiveDb(const LiveDb&) = delete;
  LiveDb& operator=(const LiveDb&) = delete;

  const BuildCost& build() const { return build_; }

  /// Closes the database and keeps a copy of its files; Restore() drops the
  /// open handle and puts that copy back, so every round of writes starts
  /// from the same committed state.
  void Checkpoint();
  void Restore();
  /// Loads the writer's in-memory state (trie mirrors of every index) the
  /// way the first write after opening would, without writing.
  void WarmWriter();

  WriteRun Insert(uint32_t coll_index, Tracer* tracer, uint64_t request);
  WriteRun Update(uint32_t id, uint32_t coll_index, Tracer* tracer,
                  uint64_t request);
  WriteRun Delete(uint32_t id, Tracer* tracer, uint64_t request);

  /// QueryDriver::ExecuteXPathBatchSnapshot over rp and ep.
  BatchRun SnapshotBatch(const std::vector<std::string>& xpaths,
                         Tracer* tracer, uint64_t request);
  /// Database::OpenSnapshot + SnapshotView::OpenAt for rp and ep, timed
  /// alone (what every snapshot batch pays before its first query).
  double SnapshotOpenUs(Tracer* tracer, uint64_t request);
  /// Live documents of rp and ep in the current snapshot.
  std::pair<size_t, size_t> LiveDocs();
  /// Runs `xpath` on a derived engine (ViST, TwigStack, XB) opened from the
  /// current snapshot.
  ColdRun RunOnSnapshot(Engine engine, const std::string& xpath);

  uint64_t FileBytes() const;
  uint64_t OplogBytes() const;
  uint64_t FreePages() const;

  /// In-process `prix serve` on an ephemeral loopback port.
  void StartServer(size_t query_threads);
  uint16_t port() const;
  uint64_t cache_hits() const;
  void StopServer();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  BuildCost build_;
};

/// One connection of a closed-loop client speaking the serve wire protocol.
class WireClient {
 public:
  explicit WireClient(uint16_t port);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  struct Reply {
    bool ok = false;  ///< a kResult frame arrived
    bool cached = false;
    std::string error;
    std::vector<uint32_t> docs;
  };
  Reply Query(const std::string& xpath, uint64_t request_id, Tracer* tracer);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// `prix bench-serve`'s load generator (RunReplay), closed loop, batch 1.
struct ReplayRun {
  bool ok = false;
  std::string error;
  uint64_t requests = 0, answered = 0, docs = 0;
  std::vector<double> latencies_us;
};
ReplayRun Replay(uint16_t port, const std::vector<std::string>& xpaths,
                 size_t connections, uint64_t seed, Tracer* tracer);

}  // namespace prixbench

#endif  // PRIXBENCH_ADAPTER_H_
