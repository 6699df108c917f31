// core::CompileCache and core::RenderedCache: fingerprint keys,
// shared-future dedup and poisoned-entry retry for both value kinds, LRU
// eviction, forgetting a settled compile, and the rendered cache's
// crash-safe journal.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/compile_cache.hpp"
#include "ir/builder.hpp"

namespace flo::core {
namespace {

ir::Program tiny_program(const char* name = "tiny", std::int64_t n = 16) {
  return ir::ProgramBuilder(name)
      .array("A", {n, n})
      .nest("scan", {{0, n - 1}, {0, n - 1}}, 0)
      .read("A", {{1, 0}, {0, 1}})
      .done()
      .build();
}

CompiledExperiment fake_compiled() { return CompiledExperiment{}; }

/// Renders `rendered` under `key` through get_or_render, as a miss does.
void render(RenderedCache& cache, const std::string& key,
            const RenderedCompile& rendered) {
  (void)cache.get_or_render(key, [&] { return rendered; });
}

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name + "." + std::to_string(::getpid()) +
         ".journal";
}

TEST(CompileCacheTest, FingerprintsFollowContentNotIdentity) {
  const auto a = tiny_program();
  const auto b = tiny_program();  // distinct instance, same content
  EXPECT_EQ(program_fingerprint(a), program_fingerprint(b));
  const auto c = tiny_program("tiny", 32);
  EXPECT_NE(program_fingerprint(a), program_fingerprint(c));

  ExperimentConfig config;
  config.scheme = Scheme::kInterNode;
  EXPECT_EQ(compile_fingerprint(program_fingerprint(a), config),
            compile_fingerprint(program_fingerprint(b), config));

  // compile_topology participates: two configs simulating different
  // hierarchies but compiling against the SAME reference share a key —
  // the template-family fast tier.
  ExperimentConfig member1 = config;
  ExperimentConfig member2 = config;
  member1.topology.storage_cache_bytes *= 2;
  member2.topology.storage_cache_bytes *= 4;
  member1.compile_topology = config.topology;
  member2.compile_topology = config.topology;
  EXPECT_EQ(compile_fingerprint(program_fingerprint(a), member1),
            compile_fingerprint(program_fingerprint(a), member2));
  // ...while distinct compile topologies do not.
  member2.compile_topology->storage_cache_bytes *= 2;
  EXPECT_NE(compile_fingerprint(program_fingerprint(a), member1),
            compile_fingerprint(program_fingerprint(a), member2));
}

TEST(CompileCacheTest, QosConfigJoinsTheFingerprint) {
  // QoS changes simulation results, so every knob must split the key for
  // topology-dependent schemes. (Scheme::kDefault compiles from the
  // program alone; its cells stay distinct via the journal key, which
  // appends the full topology — QoS included — for every scheme.)
  const auto program = tiny_program();
  const auto fp = program_fingerprint(program);
  ExperimentConfig plain;
  plain.scheme = Scheme::kInterNode;
  ExperimentConfig qos = plain;
  qos.topology.qos.enabled = true;
  EXPECT_NE(compile_fingerprint(fp, plain), compile_fingerprint(fp, qos));

  ExperimentConfig shares = qos;
  shares.topology.qos.shares = {2, 1};
  EXPECT_NE(compile_fingerprint(fp, qos), compile_fingerprint(fp, shares));

  ExperimentConfig sched = qos;
  sched.topology.qos.scheduler = storage::SchedPolicyKind::kPriority;
  EXPECT_NE(compile_fingerprint(fp, qos), compile_fingerprint(fp, sched));

  ExperimentConfig dynamic = shares;
  dynamic.topology.qos.dynamic_shares = true;
  EXPECT_NE(compile_fingerprint(fp, shares),
            compile_fingerprint(fp, dynamic));

  ExperimentConfig window = qos;
  window.topology.qos.sched_window = 40e-3;
  EXPECT_NE(compile_fingerprint(fp, qos), compile_fingerprint(fp, window));
}

TEST(CompileCacheTest, GetOrCompileDedupsAndCounts) {
  CompileCache cache;
  std::atomic<int> compiles{0};
  const auto compile = [&] {
    compiles.fetch_add(1);
    return fake_compiled();
  };
  const CompiledPtr first = cache.get_or_compile("k1", compile);
  const CompiledPtr again = cache.get_or_compile("k1", compile);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(compiles.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(CompileCacheTest, ConcurrentRequestersShareOneCompile) {
  CompileCache cache;
  std::atomic<int> compiles{0};
  std::vector<std::thread> threads;
  std::vector<CompiledPtr> results(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      results[i] = cache.get_or_compile("shared", [&] {
        compiles.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return fake_compiled();
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(compiles.load(), 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(results[i].get(), results[0].get());
}

TEST(CompileCacheTest, FailedCompileIsRetriedNotPoisoned) {
  CompileCache cache;
  int calls = 0;
  EXPECT_THROW(cache.get_or_compile("flaky",
                                    [&]() -> CompiledExperiment {
                                      ++calls;
                                      throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
  const CompiledPtr ok = cache.get_or_compile("flaky", [&] {
    ++calls;
    return fake_compiled();
  });
  EXPECT_NE(ok, nullptr);
  EXPECT_EQ(calls, 2);
}

TEST(CompileCacheTest, ForgetDropsOnlySettledEntries) {
  CompileCache cache;
  int compiles = 0;
  const auto compile = [&] {
    ++compiles;
    return fake_compiled();
  };
  const CompiledPtr held = cache.get_or_compile("k", compile);
  EXPECT_TRUE(cache.forget("k"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(held.use_count(), 1);  // the cache no longer holds it
  EXPECT_FALSE(cache.forget("k"));
  EXPECT_FALSE(cache.forget("absent"));
  // A later request compiles again.
  EXPECT_NE(cache.get_or_compile("k", compile), nullptr);
  EXPECT_EQ(compiles, 2);

  // An in-flight entry stays: its requester still stores it.
  std::promise<void> started;
  std::promise<void> finish;
  std::future<void> go = finish.get_future();
  std::thread owner([&] {
    (void)cache.get_or_compile("slow", [&] {
      started.set_value();
      go.wait();
      return fake_compiled();
    });
  });
  started.get_future().wait();
  EXPECT_FALSE(cache.forget("slow"));
  finish.set_value();
  owner.join();
  EXPECT_TRUE(cache.forget("slow"));
}

TEST(CompileCacheTest, ConcurrentRenderersShareOneRender) {
  RenderedCache cache;
  std::atomic<int> renders{0};
  std::vector<std::thread> threads;
  std::vector<RenderedCompile> results(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      results[i] = cache.get_or_render("shared", [&] {
        const int n = renders.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return RenderedCompile{"exact", "plan " + std::to_string(n)};
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(renders.load(), 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[i].tier, "exact");
    EXPECT_EQ(results[i].body, "plan 0");
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
}

TEST(CompileCacheTest, FailedRenderIsRetriedNotKept) {
  RenderedCache cache;
  int calls = 0;
  EXPECT_THROW(cache.get_or_render("flaky",
                                   [&]() -> RenderedCompile {
                                     ++calls;
                                     throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  EXPECT_FALSE(cache.lookup_rendered("flaky").has_value());
  EXPECT_EQ(cache.size(), 0u);
  const RenderedCompile ok = cache.get_or_render("flaky", [&] {
    ++calls;
    return RenderedCompile{"exact", "plan"};
  });
  EXPECT_EQ(ok.body, "plan");
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CompileCacheTest, RenderedEntryIsJournaledBeforeTheRendererReturns) {
  const std::string path = temp_path("cache_render_journal");
  std::remove(path.c_str());
  CompileCacheOptions options;
  options.journal_path = path;
  RenderedCache cache(options);
  int renders = 0;
  const auto render = [&] {
    ++renders;
    return RenderedCompile{"template", "body\nline two"};
  };
  EXPECT_EQ(cache.get_or_render("k", render).body, "body\nline two");
  EXPECT_EQ(cache.get_or_render("k", render).tier, "template");
  EXPECT_EQ(renders, 1);
  // A second process on the same journal, while the first still runs.
  RenderedCache restarted(options);
  EXPECT_EQ(restarted.stats().journal_replayed, 1u);
  const RenderedCompile replayed =
      restarted.get_or_render("k", [&]() -> RenderedCompile {
        ADD_FAILURE() << "a replayed entry was rendered again";
        return {};
      });
  EXPECT_EQ(replayed.tier, "template");
  EXPECT_EQ(replayed.body, "body\nline two");
  EXPECT_EQ(restarted.stats().hits, 1u);
  std::remove(path.c_str());
}

TEST(CompileCacheTest, FailedJournalWriteKeepsTheEntrySettled) {
  // The journal's directory does not exist, so every write fails. Each
  // renderer sees the failure, yet its entry stays served from memory,
  // including the one whose settling evicted the other.
  CompileCacheOptions options;
  options.capacity = 1;
  options.journal_path = temp_path("no_such_dir") + "/cache.journal";
  RenderedCache cache(options);
  for (const char* key : {"a", "b"}) {
    EXPECT_THROW((void)cache.get_or_render(key,
                                           [] {
                                             return RenderedCompile{"exact",
                                                                    "plan"};
                                           }),
                 std::system_error);
  }
  const RenderedCompile kept =
      cache.get_or_render("b", []() -> RenderedCompile {
        ADD_FAILURE() << "a settled entry was rendered again";
        return {};
      });
  EXPECT_EQ(kept.body, "plan");
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CompileCacheTest, LruEvictionRespectsCapacityAndRecency) {
  CompileCacheOptions options;
  options.capacity = 2;
  CompileCache cache(options);
  (void)cache.get_or_compile("a", fake_compiled);
  (void)cache.get_or_compile("b", fake_compiled);
  (void)cache.get_or_compile("a", fake_compiled);  // refresh a
  (void)cache.get_or_compile("c", fake_compiled);  // evicts b (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  int compiles = 0;
  (void)cache.get_or_compile("a", [&] {
    ++compiles;
    return fake_compiled();
  });
  EXPECT_EQ(compiles, 0) << "recently-used entry was evicted";
  (void)cache.get_or_compile("b", [&] {
    ++compiles;
    return fake_compiled();
  });
  EXPECT_EQ(compiles, 1) << "LRU entry survived eviction";
}

TEST(CompileCacheTest, CompiledEntriesAreNotJournaled) {
  CompileCacheOptions options;
  options.journal_path = temp_path("cache_compiled_journal");
  EXPECT_THROW(CompileCache cache(options), std::invalid_argument);
}

TEST(CompileCacheTest, RenderedTierSurvivesRestartViaJournal) {
  const std::string path = temp_path("cache_restart");
  std::remove(path.c_str());
  {
    CompileCacheOptions options;
    options.journal_path = path;
    RenderedCache cache(options);
    render(cache, "k1", {"exact", "plan body\nwith two lines"});
    render(cache, "k2", {"template", "body% with %0A escapes\r\n"});
  }
  CompileCacheOptions options;
  options.journal_path = path;
  RenderedCache restarted(options);
  EXPECT_EQ(restarted.stats().journal_replayed, 2u);
  const auto k1 = restarted.lookup_rendered("k1");
  ASSERT_TRUE(k1.has_value());
  EXPECT_EQ(k1->tier, "exact");
  EXPECT_EQ(k1->body, "plan body\nwith two lines");
  const auto k2 = restarted.lookup_rendered("k2");
  ASSERT_TRUE(k2.has_value());
  EXPECT_EQ(k2->body, "body% with %0A escapes\r\n");
  EXPECT_EQ(restarted.stats().hits, 2u);
  std::remove(path.c_str());
}

TEST(CompileCacheTest, CorruptJournalLinesAreSkippedNotTrusted) {
  const std::string path = temp_path("cache_corrupt");
  {
    CompileCacheOptions options;
    options.journal_path = path;
    RenderedCache cache(options);
    render(cache, "good", {"exact", "intact body"});
  }
  {
    // Append garbage: a truncated line, binary noise, a bad escape.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "truncated exact half-a-bo";
    out << "\n\x01\x02\x03 binary junk\n";
    out << "badescape exact body%zz\n";
  }
  CompileCacheOptions options;
  options.journal_path = path;
  RenderedCache cache(options);
  // Only the intact entry plus the parseable "truncated" line (its body
  // is complete as far as the line goes) may come back; the binary and
  // bad-escape lines must be dropped, never mis-attributed.
  EXPECT_TRUE(cache.lookup_rendered("good").has_value());
  EXPECT_FALSE(cache.lookup_rendered("badescape").has_value());
  std::remove(path.c_str());
}

TEST(CompileCacheTest, ForeignJournalFileIsRefusedLoudly) {
  const std::string path = temp_path("cache_foreign");
  {
    std::ofstream out(path);
    out << "flo-journal-v2 deadbeef\nsome engine checkpoint\n";
  }
  CompileCacheOptions options;
  options.journal_path = path;
  EXPECT_THROW(RenderedCache cache(options), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompileCacheTest, NonJournalFileIsRefusedNotOverwritten) {
  // Pointing the journal at some unrelated file must refuse loudly
  // rather than silently treating it as a fresh journal (and later
  // clobbering it on the first rewrite).
  const std::string path = temp_path("cache_nonjournal");
  {
    std::ofstream out(path);
    out << "just some notes\n";
  }
  CompileCacheOptions options;
  options.journal_path = path;
  try {
    RenderedCache cache(options);
    FAIL() << "expected a loud refusal for a non-journal file";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("not a compile-cache journal"),
              std::string::npos)
        << error.what();
  }
  // The refusal must leave the file untouched.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "just some notes");
  std::remove(path.c_str());
}

TEST(CompileCacheTest, LeftoverTmpFromCrashedRenameIsIgnored) {
  const std::string path = temp_path("cache_tmp_leftover");
  {
    CompileCacheOptions options;
    options.journal_path = path;
    RenderedCache cache(options);
    render(cache, "settled", {"exact", "committed body"});
  }
  // A crash between tmp write and rename leaves <path>.tmp.<pid>; the
  // committed journal must win and the leftover must not confuse replay.
  {
    std::ofstream out(path + ".tmp." + std::to_string(::getpid()));
    out << "flo-cachejournal-v1\nsettled exact half-writ";
  }
  CompileCacheOptions options;
  options.journal_path = path;
  RenderedCache cache(options);
  const auto entry = cache.lookup_rendered("settled");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->body, "committed body");
  std::remove(path.c_str());
  std::remove((path + ".tmp." + std::to_string(::getpid())).c_str());
}

TEST(CompileCacheTest, EvictionDropsRenderedEntriesFromTheJournal) {
  const std::string path = temp_path("cache_evict_journal");
  std::remove(path.c_str());
  {
    CompileCacheOptions options;
    options.capacity = 1;
    options.journal_path = path;
    RenderedCache cache(options);
    render(cache, "old", {"exact", "old body"});
    render(cache, "new", {"exact", "new body"});  // evicts "old"
    EXPECT_EQ(cache.stats().evictions, 1u);
  }
  CompileCacheOptions options;
  options.journal_path = path;
  RenderedCache restarted(options);
  EXPECT_FALSE(restarted.lookup_rendered("old").has_value());
  EXPECT_TRUE(restarted.lookup_rendered("new").has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flo::core
