// Hammers one Graph from many raw std::threads: concurrent const reads
// racing against the first-touch lazy index build. Before the fix,
// EnsureIndexes() mutated the mutable index vectors behind const read
// paths with no synchronization — a data race TSan flags immediately
// (build with cmake -DRDFA_SANITIZE=thread, run with ctest -L sanitize).
// The tests also assert the rebuild runs exactly once per dirty cycle.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rdf/decoded_value.h"
#include "rdf/graph.h"
#include "rdf/namespaces.h"
#include "workload/products.h"

namespace rdfa::rdf {
namespace {

const std::string kEx = workload::kExampleNs;

class GraphStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::ProductKgOptions opt;
    opt.laptops = 400;
    workload::GenerateProductKg(&g_, opt);
    type_ = g_.terms().FindIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    laptop_ = g_.terms().FindIri(kEx + "Laptop");
    price_ = g_.terms().FindIri(kEx + "price");
    manufacturer_ = g_.terms().FindIri(kEx + "manufacturer");
    ASSERT_NE(type_, kNoTermId);
    ASSERT_NE(laptop_, kNoTermId);
    ASSERT_NE(price_, kNoTermId);
    ASSERT_NE(manufacturer_, kNoTermId);
  }

  // One reader's worth of mixed const traffic; returns a checksum that must
  // be identical across threads and iterations.
  size_t ReaderPass() const {
    size_t sum = 0;
    g_.ForEachMatch(kNoTermId, type_, laptop_,
                    [&](const TripleId& t) { sum += t.s; });
    sum += g_.Match(kNoTermId, price_, kNoTermId).size();
    sum += g_.CountMatch(kNoTermId, manufacturer_, kNoTermId);
    sum += g_.EstimateMatch(kNoTermId, type_, laptop_);
    return sum;
  }

  rdf::Graph g_;
  TermId type_ = kNoTermId;
  TermId laptop_ = kNoTermId;
  TermId price_ = kNoTermId;
  TermId manufacturer_ = kNoTermId;
};

TEST_F(GraphStressTest, ConcurrentReadersWithFirstTouchIndexBuild) {
  // The graph is dirty here: every thread's first read races into the lazy
  // rebuild. All must see the same fully built indexes.
  constexpr int kThreads = 8;
  constexpr int kPasses = 50;
  std::vector<size_t> checksums(kThreads, 0);
  std::atomic<bool> mismatch{false};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        size_t first = ReaderPass();
        for (int p = 1; p < kPasses; ++p) {
          if (ReaderPass() != first) mismatch.store(true);
        }
        checksums[i] = first;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_FALSE(mismatch.load());
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(checksums[i], checksums[0]) << "thread " << i;
  }
  // Exactly one rebuild despite eight racing first touches.
  EXPECT_EQ(g_.index_generation(), 1u);
}

TEST_F(GraphStressTest, RebuildRunsOncePerDirtyCycle) {
  constexpr int kCycles = 5;
  constexpr int kThreads = 6;
  size_t baseline = ReaderPass();
  EXPECT_EQ(g_.index_generation(), 1u);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Exclusive writer phase: add then remove a triple, leaving the data
    // unchanged but the indexes dirty.
    Term s = Term::Iri(kEx + "stress" + std::to_string(cycle));
    ASSERT_TRUE(g_.Add(s, Term::Iri(kEx + "price"), Term::Integer(1)));
    TermId sid = g_.terms().FindIri(kEx + "stress" + std::to_string(cycle));
    ASSERT_EQ(g_.RemoveMatching(sid, kNoTermId, kNoTermId), 1u);
    // Concurrent reader phase: first touch of the dirty indexes.
    std::vector<std::thread> threads;
    std::atomic<bool> mismatch{false};
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        if (ReaderPass() != baseline) mismatch.store(true);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_FALSE(mismatch.load()) << "cycle " << cycle;
  }
  // One initial build + one per mutation cycle, never more.
  EXPECT_EQ(g_.index_generation(), 1u + kCycles);
}

TEST_F(GraphStressTest, FreezeIsIdempotentAndConcurrent) {
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int p = 0; p < 100; ++p) g_.Freeze();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g_.index_generation(), 1u);
}

TEST_F(GraphStressTest, DecodedColumnReadsRaceInterning) {
  // One thread interns numbers and dates (growing new chunks) while readers
  // read the term and the decoded value of every id published so far. A
  // published id's slots are written before size() covers it, so readers
  // never see a torn or default entry.
  constexpr int kReaders = 3;
  constexpr int kFresh = 20000;
  TermTable& terms = g_.terms();
  const size_t base = terms.size();
  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      size_t probe = static_cast<size_t>(r);
      while (!done.load(std::memory_order_acquire)) {
        const size_t n = terms.size();
        for (size_t k = 0; k < 64; ++k) {
          // The newest ids, and a stride over all of them.
          const auto id = static_cast<TermId>(
              k % 2 == 0 ? n - 1 - (k / 2) % n : (probe += 7919) % n);
          const Term& t = terms.Get(id);
          const DecodedValue d = terms.Decoded(id);
          const DecodedValue want = DecodeValue(t);
          if (d.kind != want.kind ||
              (d.is_number() && d.number() != want.number()) ||
              (d.kind == DecodedValue::Kind::kDate && d.date != want.date)) {
            mismatches.fetch_add(1);
          }
          if (id >= base && t.datatype() == xsd::kInteger &&
              d.kind != DecodedValue::Kind::kInt) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (int i = 0; i < kFresh; ++i) {
    if (i % 3 == 2) {
      terms.Intern(Term::TypedLiteral(
          std::to_string(1000 + i % 9000) + "-0" + std::to_string(1 + i % 9) +
              "-1" + std::to_string(i % 10),
          xsd::kDate));
    } else {
      terms.Intern(i % 3 == 0 ? Term::Integer(-i) : Term::Double(i + 0.25));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(terms.size(), base + kFresh / 2);
  for (size_t id = base; id < terms.size(); ++id) {
    const TermId t = static_cast<TermId>(id);
    EXPECT_NE(terms.Decoded(t).kind, DecodedValue::Kind::kTerm)
        << terms.Get(t).ToNTriples();
  }
}

}  // namespace
}  // namespace rdfa::rdf
