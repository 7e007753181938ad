// Package parroute is a reproduction of "Parallel Global Routing
// Algorithms for Standard Cells" (Xing, Banerjee, Chandy — IPPS 1997): the
// TimberWolfSC-style global router for row-based standard cells plus the
// paper's three parallel algorithms (row-wise, net-wise and hybrid pin
// partition) on a message-passing substrate with simulated SMP/DMP
// machines and synthetic MCNC-like benchmark circuits.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for measured-vs-paper results. TestPaperTables
// (paper_test.go) regenerates every table and figure of the paper's
// evaluation and holds EXPERIMENTS.md to it.
package parroute
