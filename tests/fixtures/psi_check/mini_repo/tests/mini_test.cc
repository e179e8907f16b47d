// Cross-reference targets for the psi_check fixture tree: mentions
// test.site.alpha (the exercised fault site) plus good_counter and
// missing_in_tostring (asserted metrics counters), and calls the two
// functions that nothing outside tests/ calls. Never compiled.
TEST(Mini, CountersAndSites) {
  use("test.site.alpha");
  assert_counter(snapshot.good_counter);
  assert_counter(snapshot.missing_in_tostring);
  EXPECT_EQ(psi::match::OnlyTested(), psi::match::WronglyWaived());
}
