// Heap allocations of a serial Execute must not grow with the rows it
// carries: solution rows live in flat tables, so a query allocates per
// table (and per group), not per row. This binary replaces the global
// operator new to count calls, so it holds only this test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "rdf/graph.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "workload/products.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_news{0};

void* Allocate(size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace rdfa {
namespace {

constexpr char kPfx[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

// operator new calls of one serial Execute of `query` over a product KG of
// `laptops` laptops, after one warm-up Execute.
size_t CountNews(size_t laptops, const std::string& query, size_t* rows) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = laptops;
  opt.companies = 200;
  workload::GenerateProductKg(&g, opt);
  auto parsed = sparql::ParseQuery(std::string(kPfx) + query);
  EXPECT_TRUE(parsed.ok());
  sparql::Executor exec(&g);
  EXPECT_TRUE(exec.Execute(parsed.value()).ok());
  g_news = 0;
  g_counting = true;
  auto result = exec.Execute(parsed.value());
  g_counting = false;
  EXPECT_TRUE(result.ok());
  *rows = result.ok() ? result.value().num_rows() : 0;
  return g_news.load();
}

void ExpectFlat(const std::string& query) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "a sanitizer runtime owns operator new";
#endif
  size_t small_rows = 0, large_rows = 0;
  const size_t small = CountNews(2000, query, &small_rows);
  const size_t large = CountNews(8000, query, &large_rows);
  EXPECT_LE(large, small + 64)
      << "2k laptops: " << small << " allocations for " << small_rows
      << " rows; 8k laptops: " << large << " for " << large_rows;
}

TEST(AllocationTest, ChainJoinAllocatesPerTableNotPerRow) {
  ExpectFlat("SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . "
             "?m ex:origin ?c . }");
}

TEST(AllocationTest, GroupCountAllocatesPerGroupNotPerRow) {
  ExpectFlat("SELECT ?m (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ?m . } "
             "GROUP BY ?m");
}

}  // namespace
}  // namespace rdfa
