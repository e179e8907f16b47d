namespace psi::graph {
// psi-check: allow(unused-decl) -- test oracle for Fine in clean_test
int SlowFine();
}  // namespace psi::graph
