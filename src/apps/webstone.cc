#include <string>

#include "apps/workloads.h"

namespace kivati {
namespace apps {
namespace {

// Models Apache serving the Webstone benchmark: a pool of worker threads
// each accepting requests (simulated network I/O), parsing them (local
// compute), updating lock-protected server statistics, and appending to a
// shared access-log buffer whose length field is read-then-written without
// a lock — the classic Apache log-buffer race family. Each request's
// latency is emitted as a mark event (tag 1). Shared-state operations are
// small subroutines, mirroring Apache's ap_update_child_status /
// ap_buffered_log_writer structure.
std::string WebstoneSource(const LoadScale& scale) {
  return std::string(R"(
    sync int ws_stats_lock;
    int ws_scoreboard[16];
    int ws_conn_state[16];
    int ws_requests_served;
    int ws_bytes_sent;
    int ws_log_len;
    int ws_log_buf[256];

    void ws_parse_request(int seed) {
      int acc = seed;
      for (int k = 0; k < 350; k = k + 1) {
        acc = acc * 1103515245 + 12345;
      }
    }

    void ws_update_stats(int size) {
      lock(ws_stats_lock);
      ws_requests_served = ws_requests_served + 1;
      ws_bytes_sent = ws_bytes_sent + size;
      unlock(ws_stats_lock);
    }

    void ws_log_append(int entry) {
      // Unprotected read-modify-write of the log cursor: two workers can
      // interleave here (lost log entries — benign for the benchmark).
      int pos = ws_log_len;
      int formatted = entry;
      for (int k = 0; k < 120; k = k + 1) {
        formatted = formatted * 17 + k;
      }
      ws_log_buf[pos & 255] = formatted;
      ws_log_len = pos + 1;
    }

    void ws_serve_large(int id) {
      // A large-file request: the worker marks its scoreboard slot busy,
      // performs long file I/O, then clears the slot. The write..read pair
      // spans the I/O, holding a watchpoint for the whole request — the
      // realistic source of register exhaustion (Table 8). clear_ar at
      // return bounds the region to this call.
      ws_scoreboard[id & 15] = 1;
      ws_conn_state[id & 15] = 2;
      io(7000);
      int busy = ws_scoreboard[id & 15];
      ws_scoreboard[id & 15] = busy - 1;
      int conn = ws_conn_state[id & 15];
      ws_conn_state[id & 15] = conn - 2;
    }

    void ws_log_rotate(int unused) {
      // Rotating the access log resets the cursor with a single unpaired
      // write; racing an append loses at most one entry (benign).
      ws_log_len = 0;
    }

    void ws_stats_reset(int unused) {
      // mod_status zeroing the counters: unpaired writes racing the locked
      // statistics updates.
      ws_requests_served = 0;
      ws_bytes_sent = 0;
    }

    void ws_worker(int id) {
      int seed = id * 40503 + 3;
      for (int i = 0; i < )" + std::to_string(scale.iterations) + R"(; i = i + 1) {
        int t0 = now();
        // Scoreboard entry (Apache's worker-status slot): written at request
        // start and read back at completion, directly in this function, so
        // the region spans the whole request and pins a watchpoint — the
        // main source of register exhaustion (Table 8).

        // Accept + read the request from the network.
        seed = seed * 6364136223846793005 + 1442695040888963407;
        io(200 + (seed & 511));

        ws_parse_request(seed);

        // Generate the response (simulated file I/O for larger objects).
        int size = 256 + (seed & 4095);
        if (size > 4000) {
          io(300);
        }

        ws_update_stats(size);
        ws_log_append(size);
        if ((seed & 15) == 0) {
          ws_log_rotate(0);
        }
        if ((seed & 31) == 1) {
          ws_stats_reset(0);
        }

        if ((seed & 3) == 0) {
          ws_serve_large(id);
        }

        int t1 = now();
        mark(1, t1 - t0);
      }
    }
  )");
}

}  // namespace

App MakeWebstone(const LoadScale& scale) {
  return AssembleApp("Webstone", WebstoneSource(scale), "ws_worker", scale.workers, {},
                     400'000'000, scale.frontend);
}

}  // namespace apps
}  // namespace kivati
