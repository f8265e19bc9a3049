// Code generated by teamsbench -exp autotable (go generate ./internal/core); DO NOT EDIT.

package core

// autoTable is the decision table AutoPick reads: per kind, sorted rows of
// {images per node <=, sockets <=, nodes <=, payload bytes <, pick, flat pick},
// first match wins. Fitted (internal/bench.FitAutoTable) to a sweep of every
// registered algorithm, 3 episodes with rotating roots, on the placements
//
//	4(4) 8(8) 16(16) 32(32) 44(44) 64(64) 8(2) 8(4) 16(4) 24(8) 64(16) 128(32) 16x2x2 16(2) 32(2) 48(4) 64(8) 128(16) 256(32) 8x1x8 48(2) 96(4) 192(8)
//
// at [1 16 128 1024 4096 16384 131072] float64 elements (cells above 64 MiB of payload skipped): the fewest
// rows whose pick is within 1.02x of the best algorithm on every cell they
// cover, except where one class on every axis has no such algorithm. A row's
// comment gives the sweep cells it covers and, over them, the geomean and the
// worst ratio of the pick's modeled time to the best algorithm's.
var autoTable = [numKinds][]AutoRow{
	0: { // barrier
		{1, inf, 16, inf, "linear", "linear"},          // 3 cells, 1.000, worst 1.000
		{1, inf, inf, inf, "tournament", "tournament"}, // 3 cells, 1.000, worst 1.000
		{inf, inf, 2, inf, "tdlb", "linear"},           // 4 cells, 1.000, worst 1.000
		{inf, inf, inf, inf, "tdll", "tournament"},     // 13 cells, 1.000, worst 1.000
	},
	1: { // allreduce
		{1, inf, 8, 4096, "linear", "linear"},    // 6 cells, 1.000, worst 1.000
		{1, inf, 8, inf, "rd", "rd"},             // 8 cells, 1.000, worst 1.000
		{1, inf, inf, inf, "rd", "rd"},           // 28 cells, 1.000, worst 1.000
		{4, inf, 4, 524288, "2level", "linear"},  // 18 cells, 1.000, worst 1.000
		{4, inf, 4, inf, "ring", "ring"},         // 3 cells, 1.000, worst 1.000
		{4, inf, 8, inf, "2level", "tree"},       // 7 cells, 1.000, worst 1.000
		{4, inf, inf, 524288, "2level", "tree"},  // 18 cells, 1.000, worst 1.006
		{4, inf, inf, inf, "ring", "ring"},       // 2 cells, 1.000, worst 1.000
		{16, 1, inf, inf, "2level", "tree"},      // 7 cells, 1.000, worst 1.000
		{16, inf, 2, 4096, "3level", "linear"},   // 6 cells, 1.004, worst 1.014
		{16, inf, 2, 16384, "2level", "tree"},    // 2 cells, 1.037, worst 1.075
		{16, inf, 2, 524288, "2level", "tree"},   // 4 cells, 1.000, worst 1.000
		{16, inf, 2, inf, "2level", "ring"},      // 2 cells, 1.044, worst 1.090
		{16, inf, inf, 4096, "3level", "tree"},   // 12 cells, 1.003, worst 1.012
		{16, inf, inf, inf, "2level", "tree"},    // 14 cells, 1.001, worst 1.020
		{inf, inf, inf, 16384, "3level", "tree"}, // 12 cells, 1.001, worst 1.007
		{inf, inf, inf, inf, "2level", "tree"},   // 7 cells, 1.006, worst 1.014
	},
	2: { // reduceto
		{1, inf, 8, 4096, "linear", "linear"},      // 6 cells, 1.000, worst 1.000
		{1, inf, 8, inf, "binomial", "binomial"},   // 8 cells, 1.002, worst 1.018
		{1, inf, inf, inf, "binomial", "binomial"}, // 28 cells, 1.000, worst 1.000
		{inf, inf, inf, inf, "2level", "binomial"}, // 114 cells, 1.000, worst 1.000
	},
	3: { // bcast
		{1, inf, 4, 65536, "linear", "linear"},                          // 5 cells, 1.000, worst 1.000
		{1, inf, 4, inf, "scatter-allgather", "scatter-allgather"},      // 2 cells, 1.003, worst 1.005
		{1, inf, 16, 16384, "linear", "linear"},                         // 8 cells, 1.000, worst 1.000
		{1, inf, 16, inf, "scatter-allgather", "scatter-allgather"},     // 6 cells, 1.000, worst 1.000
		{1, inf, 32, 512, "linear", "linear"},                           // 2 cells, 1.000, worst 1.000
		{1, inf, 32, 16384, "binomial", "binomial"},                     // 2 cells, 1.000, worst 1.000
		{1, inf, 32, inf, "scatter-allgather", "scatter-allgather"},     // 3 cells, 1.000, worst 1.000
		{1, inf, inf, 65536, "binomial", "binomial"},                    // 10 cells, 1.000, worst 1.000
		{1, inf, inf, 524288, "scatter-allgather", "scatter-allgather"}, // 2 cells, 1.478, worst 2.183
		{1, inf, inf, inf, "scatter-allgather", "scatter-allgather"},    // 2 cells, 1.202, worst 1.445
		{4, inf, 4, inf, "2level", "linear"},                            // 21 cells, 1.001, worst 1.017
		{4, inf, inf, 524288, "2level", "binomial"},                     // 24 cells, 1.000, worst 1.000
		{4, inf, inf, inf, "scatter-allgather", "scatter-allgather"},    // 3 cells, 1.000, worst 1.000
		{inf, inf, inf, inf, "2level", "binomial"},                      // 66 cells, 1.000, worst 1.000
	},
	4: { // allgather
		{inf, inf, 2, 65536, "2level", "bruck"}, // 19 cells, 1.001, worst 1.016
		{inf, inf, 2, inf, "ring", "ring"},      // 3 cells, 1.006, worst 1.017
		{inf, inf, inf, inf, "2level", "bruck"}, // 87 cells, 1.000, worst 1.000
	},
	5: { // scatter
		{1, inf, 8, inf, "linear", "linear"},       // 14 cells, 1.000, worst 1.000
		{1, inf, inf, 512, "binomial", "binomial"}, // 8 cells, 1.000, worst 1.000
		{1, inf, inf, inf, "2level", "linear"},     // 20 cells, 1.000, worst 1.000
		{inf, inf, 4, 16384, "2level", "linear"},   // 32 cells, 1.000, worst 1.000
		{inf, inf, 4, inf, "linear", "linear"},     // 23 cells, 1.000, worst 1.007
		{inf, inf, inf, 65536, "2level", "linear"}, // 45 cells, 1.000, worst 1.000
		{inf, inf, inf, inf, "linear", "linear"},   // 14 cells, 1.002, worst 1.014
	},
	6: { // gather
		{1, inf, 8, inf, "linear", "linear"},       // 14 cells, 1.000, worst 1.000
		{1, inf, 32, 512, "binomial", "binomial"},  // 4 cells, 1.000, worst 1.000
		{1, inf, 32, inf, "linear", "linear"},      // 10 cells, 1.000, worst 1.000
		{1, inf, inf, inf, "2level", "linear"},     // 14 cells, 1.001, worst 1.010
		{inf, inf, 8, 16384, "2level", "linear"},   // 48 cells, 1.000, worst 1.000
		{inf, inf, 8, inf, "linear", "linear"},     // 34 cells, 1.000, worst 1.000
		{inf, inf, inf, 65536, "2level", "linear"}, // 25 cells, 1.000, worst 1.000
		{inf, inf, inf, inf, "linear", "linear"},   // 7 cells, 1.000, worst 1.000
	},
	7: { // alltoall
		{2, inf, 4, 4096, "2level", "bruck"},        // 6 cells, 1.000, worst 1.000
		{2, inf, 4, inf, "pairwise", "pairwise"},    // 8 cells, 1.000, worst 1.000
		{2, inf, inf, 512, "bruck", "bruck"},        // 10 cells, 1.000, worst 1.000
		{2, inf, inf, inf, "pairwise", "pairwise"},  // 17 cells, 1.000, worst 1.000
		{16, inf, 2, 4096, "2level", "bruck"},       // 9 cells, 1.000, worst 1.000
		{16, inf, 2, inf, "pairwise", "pairwise"},   // 9 cells, 1.000, worst 1.000
		{16, inf, inf, 16384, "2level", "bruck"},    // 37 cells, 1.000, worst 1.000
		{16, inf, inf, inf, "pairwise", "pairwise"}, // 3 cells, 1.000, worst 1.000
		{inf, inf, inf, 4096, "2level", "bruck"},    // 9 cells, 1.000, worst 1.000
		{inf, inf, inf, inf, "bruck", "bruck"},      // 1 cells, 1.000, worst 1.000
	},
	8: { // scan
		{1, inf, 16, inf, "linear", "linear"},    // 21 cells, 1.000, worst 1.000
		{1, inf, inf, inf, "2level", "rd"},       // 21 cells, 1.000, worst 1.000
		{2, inf, inf, 16384, "2level", "linear"}, // 4 cells, 1.000, worst 1.000
		{2, inf, inf, inf, "linear", "linear"},   // 3 cells, 1.000, worst 1.000
		{inf, inf, inf, inf, "2level", "linear"}, // 107 cells, 1.000, worst 1.000
	},
}
