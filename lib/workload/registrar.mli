(** The paper's running example: the registrar schema R0, the recursive
    DTD D0, the ATG σ0 of Fig. 2 and the instance behind Fig. 1 (CS650
    requires CS320, CS320 requires CS120; CS320 therefore occurs both at
    top level and as a shared prerequisite subtree). *)

module Schema = Rxv_relational.Schema
module Database = Rxv_relational.Database
module Dtd = Rxv_xml.Dtd
module Atg = Rxv_atg.Atg

val schema : Schema.db
val dtd : Dtd.t
val atg : unit -> Atg.t
val sample_db : unit -> Database.t

val course_attr : string -> string -> Rxv_relational.Tuple.t
(** $course = (cno, title) *)

val engine : unit -> Rxv_core.Engine.t
(** a ready engine over the sample instance *)
