//! One declaration site per vocabulary: [`Opcode`](crate::Opcode),
//! [`Modifier`](crate::Modifier) and [`SpecialReg`](crate::SpecialReg)
//! are each one list of rows, and everything else about them is emitted
//! from that list.

/// Declares `pub enum $name` from `Variant = "SPELLING",` rows and emits
/// `ALL` and `name` / `from_name` / `Display`.
macro_rules! vocabulary {
    (
        $(#[$meta:meta])*
        pub enum $name:ident { $($variant:ident = $spelling:literal,)* }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum $name {
            $($variant,)*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$($spelling),*].len()] = [$($name::$variant,)*];

            /// The assembly spelling.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $spelling,)*
                }
            }

            /// Parses the assembly spelling.
            pub fn from_name(name: &str) -> Option<Self> {
                match name {
                    $($spelling => Some($name::$variant),)*
                    _ => None,
                }
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
