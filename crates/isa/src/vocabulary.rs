//! One declaration site per vocabulary: [`Opcode`](crate::Opcode),
//! [`Modifier`](crate::Modifier) and [`SpecialReg`](crate::SpecialReg)
//! are each one list of rows, and everything else about them is emitted
//! from that list.

/// Declares `pub enum $name` from `Variant = "SPELLING",` rows and emits
/// `ALL`, `code` / `from_code` and `name` / `from_name` / `Display`.
///
/// **Declaration order is encoding order:** a variant's binary code is
/// its position in the list counted from `first code`, so a new variant
/// goes at the end — anywhere else renumbers every word already encoded.
macro_rules! vocabulary {
    (
        $(#[$meta:meta])*
        pub enum $name:ident, first code $first:literal { $($variant:ident = $spelling:literal,)* }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum $name {
            $($variant,)*
        }

        impl $name {
            /// Every variant, in declaration (= encoding) order.
            pub const ALL: [$name; [$($spelling),*].len()] = [$($name::$variant,)*];

            /// Stable numeric code used by the binary encoding.
            pub fn code(self) -> u8 {
                self as u8 + $first
            }

            /// Inverse of `code`.
            pub fn from_code(code: u8) -> Option<Self> {
                Self::ALL.get(usize::from(code.checked_sub($first)?)).copied()
            }

            /// The assembly spelling.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $spelling,)*
                }
            }

            /// Parses the assembly spelling.
            pub fn from_name(name: &str) -> Option<Self> {
                Self::ALL.iter().copied().find(|v| v.name() == name)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

pub(crate) use vocabulary;
