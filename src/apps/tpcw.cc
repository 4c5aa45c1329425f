#include <string>

#include "apps/workloads.h"

namespace kivati {
namespace apps {
namespace {

// Models MySQL under a TPC-W-style transactional mix: client threads run
// transactions that lock a row-stripe, read-modify-write two rows, append
// to the binary log (whose cursor is unprotected, like the MySQL binlog
// races), and occasionally read a hot statistics counter without a lock.
// Transaction latency is emitted as a mark event (tag 2).
std::string TpcwSource(const LoadScale& scale) {
  return std::string(R"(
    int db_txn_state[16];
    sync int db_lock_even;
    sync int db_lock_odd;
    int db_rows[256];
    int db_commits;
    int db_binlog_len;
    int db_binlog[512];
    int db_hot_counter;

    void db_binlog_append(int entry) {
      // Unprotected binlog cursor: read then write, remote writers can
      // interleave (MySQL's binlog race family).
      int pos = db_binlog_len;
      db_binlog[pos & 511] = entry;
      db_binlog_len = pos + 1;
    }

    void db_txn(int seed) {
      int row_a = seed & 255;
      int row_b = (seed * 131) & 255;
      // Lock the stripe of the first row (even/odd striping).
      int stripe = row_a & 1;
      if (stripe == 0) {
        lock(db_lock_even);
      }
      if (stripe == 1) {
        lock(db_lock_odd);
      }
      int a = db_rows[row_a];
      int b = db_rows[row_b];
      db_rows[row_a] = a + 1;
      db_rows[row_b] = b + a;
      db_commits = db_commits + 1;
      if (stripe == 0) {
        unlock(db_lock_even);
      }
      if (stripe == 1) {
        unlock(db_lock_odd);
      }
      db_binlog_append(a + b);
    }

    int db_page_view(int seed) {
      // Read-only page view: unprotected hot-counter update plus a short
      // row scan (benign races with committers).
      int hot = db_hot_counter;
      int acc = hot;
      for (int k = 0; k < 6; k = k + 1) {
        acc = acc + db_rows[(seed + k) & 255];
      }
      for (int k = 0; k < 100; k = k + 1) {
        acc = acc * 7 + k;
      }
      db_hot_counter = hot + 1;
      return acc;
    }

    void db_render(int seed) {
      // Page templating: local compute.
      int acc = seed;
      for (int k = 0; k < 300; k = k + 1) {
        acc = acc * 31 + k;
      }
    }

    void db_slow_txn(int id) {
      // A long transaction: connection state is marked, the commit flushes
      // to disk, then the state is read back — the write..read region spans
      // the flush and holds a watchpoint (Table 8's exhaustion source).
      db_txn_state[id & 15] = 1;
      io(6000);
      int state = db_txn_state[id & 15];
      db_txn_state[id & 15] = state + 1;
    }

    void db_flush_status(int unused) {
      // FLUSH STATUS / FLUSH LOGS: single unpaired writes resetting hot
      // counters and rotating the binlog — unannotated, benign, and
      // non-serializable with in-flight transactions.
      db_hot_counter = 0;
      db_commits = db_commits + 0;
      db_binlog_len = 0;
    }

    void db_worker(int id) {
      int seed = id * 2246822519 + 31;
      for (int i = 0; i < )" + std::to_string(scale.iterations) + R"(; i = i + 1) {
        int t0 = now();
        // Per-connection state slot, held open across the transaction
        // (mirrors MySQL's THD status updates) — pins a watchpoint.

        seed = seed * 6364136223846793005 + 1442695040888963407;

        // Think time + network round trip.
        io(150 + (seed & 255));

        if ((seed & 3) == 0) {
          db_txn(seed);
          // Disk flush for the commit.
          io(400);
        }
        if ((seed & 3) != 0) {
          int acc = db_page_view(seed);
          db_render(seed + acc);
        }

        db_slow_txn(id);
        if ((seed & 7) == 0) {
          db_flush_status(0);
        }

        int t1 = now();
        mark(2, t1 - t0);
      }
    }
  )");
}

}  // namespace

App MakeTpcw(const LoadScale& scale) {
  return AssembleApp("TPC-W", TpcwSource(scale), "db_worker", scale.workers, {},
                     400'000'000, scale.frontend);
}

}  // namespace apps
}  // namespace kivati
