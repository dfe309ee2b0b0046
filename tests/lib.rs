//! Integration-test package for the `uu` workspace; see the `[[test]]`
//! targets (`cross_crate`, `properties`, `paper_claims`).

#![forbid(unsafe_code)]
