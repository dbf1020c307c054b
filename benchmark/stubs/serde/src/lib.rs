//! Offline stand-in for `serde`. The `ca-*` crates only ever write
//! `#[derive(Serialize)]` (their JSON goes through `ca_obs::Jv`), so the
//! derive expands to nothing and there is no trait behind it.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
